#pragma once

#include <cstdint>
#include <vector>

#include "des/rng.hpp"
#include "mesh/coord.hpp"
#include "workload/job.hpp"

namespace procsim::workload {

/// Side-length distributions of the paper's stochastic workload.
enum class SideDistribution {
  kUniform,      ///< width ~ U[1, W], length ~ U[1, L], independent
  kExponential,  ///< exponential with mean W/2 (resp. L/2), clamped to [1, side]
};

[[nodiscard]] const char* to_string(SideDistribution d) noexcept;

/// Parameters of the stochastic job stream (paper §5): exponential
/// inter-arrival times with rate `load` (the "system load" axis of every
/// figure), request sides from `side_dist`, and a per-job message count
/// Exp(mean_messages) — num_mes = 5 packets in all main experiments.
struct StochasticParams {
  double load{0.01};  ///< jobs per time unit; mean inter-arrival = 1/load
  SideDistribution side_dist{SideDistribution::kUniform};
  double mean_messages{5.0};   ///< num_mes: mean packets per job
  std::int32_t packet_len{8};  ///< flits; demand = total messages * packet_len
};

/// Samples the single next job of a stochastic stream: advances `t` by an
/// exponential inter-arrival, then freezes shape, message plan and demand.
/// `generate_stochastic` and the streaming `StochasticSource` both lower onto
/// this, so the two paths draw the identical RNG sequence.
[[nodiscard]] Job next_stochastic_job(const StochasticParams& params,
                                      const mesh::Geometry& geom,
                                      des::Xoshiro256SS& rng, double& t,
                                      std::uint64_t id);

/// Generates the next `count` jobs of a stochastic stream starting at time
/// `start`. Each job's shape and message counts are frozen here; demand is
/// the total flit count (what SSD can know before running the job).
[[nodiscard]] std::vector<Job> generate_stochastic(const StochasticParams& params,
                                                   const mesh::Geometry& geom,
                                                   std::size_t count,
                                                   des::Xoshiro256SS& rng,
                                                   double start = 0,
                                                   std::uint64_t first_id = 0);

}  // namespace procsim::workload
