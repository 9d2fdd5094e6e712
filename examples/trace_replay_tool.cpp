// trace_replay_tool: inspect a workload trace and replay it through the
// simulator at a chosen offered load.
//
//   ./trace_replay_tool                     # synthetic SDSC-Paragon model
//   ./trace_replay_tool --swf=trace.swf     # a real SWF file
//   ./trace_replay_tool --load=0.01 --jobs=2000
//
// Prints the trace's summary statistics (compare with the paper's published
// characterisation), a job-size histogram, and the five performance metrics
// for each of the paper's six strategy pairs. The replay itself streams:
// run_once builds a workload::TraceSource and the simulator pulls one
// arrival ahead, so traces far larger than memory replay fine.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"
#include "des/rng.hpp"
#include "stats/histogram.hpp"
#include "workload/paragon_model.hpp"
#include "workload/swf.hpp"

int main(int argc, char** argv) {
  using namespace procsim;

  std::string swf_path;
  double load = 0.005;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--swf=", 6) == 0)
      swf_path = argv[i] + 6;
    else if (std::strncmp(argv[i], "--load=", 7) == 0)
      load = std::atof(argv[i] + 7);
    else
      passthrough.push_back(argv[i]);
  }
  const core::RunOptions opts = core::parse_run_options(
      static_cast<int>(passthrough.size()), passthrough.data());

  // --- trace statistics -----------------------------------------------
  std::vector<workload::TraceJob> trace;
  if (swf_path.empty()) {
    des::Xoshiro256SS rng(opts.seed);
    trace = workload::generate_paragon_trace(workload::ParagonModelParams{}, rng);
    std::printf("trace: synthetic SDSC Paragon model (no --swf given)\n");
  } else {
    trace = workload::load_swf_file(swf_path, 352);
    std::printf("trace: %s\n", swf_path.c_str());
  }
  const workload::TraceStats stats = workload::compute_stats(trace);
  std::printf("jobs=%zu  mean_interarrival=%.1f s  mean_size=%.1f  max_size=%d  "
              "pow2_fraction=%.2f  mean_runtime=%.0f s\n",
              stats.jobs, stats.mean_interarrival, stats.mean_size, stats.max_size,
              stats.power_of_two_fraction, stats.mean_runtime);

  stats::Histogram sizes(0, 360, 12);
  for (const auto& j : trace) sizes.add(j.processors);
  std::printf("\njob-size histogram (30-processor bins):\n");
  for (std::size_t b = 0; b < sizes.bins(); ++b) {
    std::printf("%4.0f-%4.0f |", sizes.bin_lo(b), sizes.bin_lo(b) + 30);
    const int bar = static_cast<int>(sizes.fraction(b) * 120);
    for (int i = 0; i < bar; ++i) std::printf("#");
    std::printf(" %.1f%%\n", sizes.fraction(b) * 100);
  }

  // --- replay ----------------------------------------------------------
  std::printf("\nreplay at load %.4f jobs/time-unit (f = %.4f):\n\n", load,
              workload::arrival_factor_for_load(load, stats.mean_interarrival));
  std::printf("%-16s %12s %12s %8s %10s %10s\n", "strategy", "turnaround", "service",
              "util", "latency", "blocking");

  core::ExperimentConfig cfg;
  cfg.sys.geom = mesh::Geometry(16, 22);
  cfg.sys.think_time = 50;
  cfg.sys.target_completions = opts.jobs ? opts.jobs : 1000;
  cfg.workload.kind = core::WorkloadKind::kTrace;
  cfg.workload.swf_path = swf_path;
  cfg.workload.load = load;
  cfg.workload.replay.prefix = 3 * cfg.sys.target_completions;
  cfg.seed = opts.seed;

  for (const core::Series& s : core::paper_series()) {
    cfg.allocator = s.allocator;
    cfg.scheduler = s.scheduler;
    const core::RunMetrics m = core::run_once(cfg);
    std::printf("%-16s %12.1f %12.1f %8.3f %10.2f %10.2f\n",
                cfg.series_label().c_str(), m.turnaround.mean(), m.service.mean(),
                m.utilization, m.packet_latency.mean(), m.packet_blocking.mean());
  }
  return 0;
}
