#pragma once

#include <cstdint>
#include <vector>

#include "des/rng.hpp"
#include "workload/swf.hpp"

namespace procsim::workload {

/// Synthetic stand-in for the SDSC Intel Paragon trace used by the paper.
///
/// The actual trace (Feitelson Parallel Workloads Archive) is not shipped
/// here. The simulated machine sees a job only as its arrival time, its size
/// and its demand, so a stream with the statistics the paper reports and
/// leans on stands in for the trace:
///   * 10,658 jobs from a 352-node partition,
///   * mean inter-arrival time 1186.7 s (exponential),
///   * mean job size ~34.5 processors with the distribution favouring
///     non-powers-of-two (piecewise-uniform size buckets),
///   * heavy-tailed (lognormal) runtimes.
/// A real SWF file can be used instead via load_swf_file + TraceReplay.
struct ParagonModelParams {
  std::size_t jobs{10658};
  double mean_interarrival{1186.7};  ///< seconds
  std::int32_t max_processors{352};
  double runtime_mu{7.0};     ///< lognormal log-mean   (median ~1100 s)
  double runtime_sigma{1.6};  ///< lognormal log-stddev (mean  ~4000 s)
};

/// Deterministically generates the synthetic trace for a given seed.
[[nodiscard]] std::vector<TraceJob> generate_paragon_trace(const ParagonModelParams& params,
                                                           des::Xoshiro256SS& rng);

}  // namespace procsim::workload
