#pragma once

#include <cstdint>
#include <vector>

#include "des/rng.hpp"
#include "mesh/coord.hpp"
#include "workload/job.hpp"
#include "workload/swf.hpp"

namespace procsim::workload {

/// How trace records become simulator jobs.
struct TraceReplayParams {
  /// Arrival-time multiplier f (paper §5): "to challenge allocation
  /// strategies, we multiply job arrival times by a constant factor f.
  /// When f < 1, the interarrival times decrease, resulting in an increased
  /// system load". Set via `for_load`.
  double arrival_factor{1.0};

  /// Trace runtimes become communication demand: a job's message count is
  /// Exp(runtime / runtime_scale) clamped to [1, kMaxMessagesPerJob]. The paper
  /// leaves the runtime->traffic coupling to ProcSimity internals; this
  /// mapping preserves what matters — long jobs demand proportionally more
  /// communication, and service time remains an output of network
  /// contention. Replaying the runtime as a fixed duration would make
  /// service time blind to the allocation, which is what the paper's
  /// service-time figures measure.
  double runtime_scale{20.0};

  /// Replay only the first N records (0 = whole trace).
  std::size_t prefix{0};
};

/// Arrival factor that produces a given offered load (jobs per time unit)
/// from a trace with the given mean inter-arrival time. A degenerate trace
/// (empty or single-job: zero, negative or NaN mean inter-arrival) yields the
/// neutral factor 1.0 instead of dividing blindly; a non-positive `load` is a
/// caller bug and still throws.
[[nodiscard]] double arrival_factor_for_load(double load, double trace_mean_interarrival);

/// Expands one trace record (the `index`-th of its stream) into a simulator
/// job: scaled arrival, near-square shape from the processor count,
/// runtime-driven message count, recorded runtime as the SSD demand key.
/// `make_trace_jobs` and the streaming `TraceSource` both lower onto this,
/// so the two paths draw the identical RNG sequence.
[[nodiscard]] Job make_trace_job(const TraceJob& rec, std::uint64_t index,
                                 const TraceReplayParams& params,
                                 const mesh::Geometry& geom, des::Xoshiro256SS& rng);

/// Expands trace records into simulator jobs: scaled arrivals, near-square
/// shape from the processor count, runtime-driven message counts, and the
/// recorded runtime as the SSD demand key.
[[nodiscard]] std::vector<Job> make_trace_jobs(const std::vector<TraceJob>& trace,
                                               const TraceReplayParams& params,
                                               const mesh::Geometry& geom,
                                               des::Xoshiro256SS& rng);

}  // namespace procsim::workload
