#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "des/rng.hpp"

namespace procsim::network {

/// (source index, destination index) within a job's processor list.
using IndexPair = std::pair<std::int32_t, std::int32_t>;

/// Samples a job's all-to-all communication plan: `count` messages among `k`
/// processors. The paper's experiments use all-to-all exclusively ("it
/// causes much message collision and is known as the weak point for
/// non-contiguous allocation"). Indices, not nodes: the plan is fixed at job
/// arrival and reused unchanged under every allocation strategy, and the
/// simulator binds it to the granted nodes when the job starts
/// (core::StreamSet). The messages take `count` consecutive entries of the
/// ordered pair enumeration starting at a random offset (one RNG draw),
/// spreading traffic across the whole job exactly like a sliced all-to-all
/// exchange. Empty for k < 2.
[[nodiscard]] std::vector<IndexPair> generate_message_plan(std::int32_t k,
                                                           std::int64_t count,
                                                           des::Xoshiro256SS& rng);

}  // namespace procsim::network
