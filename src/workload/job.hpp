#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace procsim::workload {

/// One message of a job's communication plan: (source, destination) as
/// *indices into the job's processor list*, not mesh nodes. The plan is
/// placement-independent; the simulator maps indices to the nodes the
/// allocator actually granted.
using MessagePlanEntry = std::pair<std::int32_t, std::int32_t>;

/// The per-job message bound. Trace replay clamps each job's mean and count
/// to it (make_trace_job); the stochastic streams reject a larger mean
/// (`mes`), whose Exp draws overflow the rounded count or exhaust memory.
inline constexpr std::int64_t kMaxMessagesPerJob = 800;

/// One parallel job as fed to the simulator. Everything stochastic about the
/// job (shape, message plan) is fixed at creation so the identical job
/// stream can be replayed against every allocation strategy — common random
/// numbers, the variance-reduction the paper's pairwise comparisons rely on.
struct Job {
  std::uint64_t id{0};
  double arrival{0};

  std::int32_t width{1};       ///< requested sub-mesh width a
  std::int32_t length{1};      ///< requested sub-mesh length b
  std::int32_t processors{1};  ///< p, the computing processors

  /// The packets this job exchanges, sampled at creation: the paper's
  /// "number of messages actually generated by a given job is exponentially
  /// distributed with mean num_mes", addressed all-to-all
  /// (network::generate_message_plan). Any plan of valid, non-self index
  /// pairs runs: at job start core::StreamSet groups it by source node,
  /// each source sending its messages in plan order. Empty when p == 1.
  std::vector<MessagePlanEntry> message_plan;

  /// SSD's key: total communication demand in flits for stochastic jobs,
  /// the recorded runtime for trace jobs.
  double demand{0};

  /// Original runtime from the trace (0 for stochastic jobs).
  double trace_runtime{0};

  [[nodiscard]] std::int64_t total_messages() const noexcept {
    return static_cast<std::int64_t>(message_plan.size());
  }
};

}  // namespace procsim::workload
