// Quickstart: simulate one experiment point of the paper — the six strategy
// pairs {GABL, Paging(0), MBS} × {FCFS, SSD} on a 16×22 wormhole mesh under
// the stochastic uniform workload — and print the five performance metrics.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart [--jobs=N] [--seed=N]

#include <cstdio>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"

int main(int argc, char** argv) {
  using namespace procsim;

  const core::RunOptions opts = core::parse_run_options(argc, argv);

  core::ExperimentConfig cfg;
  cfg.sys.geom = mesh::Geometry(16, 22);            // the paper's partition
  cfg.sys.net = network::NetworkParams{3, 8, false}; // st = 3, P_len = 8
  cfg.sys.target_completions = opts.jobs ? opts.jobs : 1000;
  cfg.workload.source_spec = "uniform;mes=5";      // side lengths, num_mes
  cfg.workload.job_count = cfg.sys.target_completions;
  cfg.workload.load = 0.015;                        // jobs per time unit
  cfg.seed = opts.seed;

  std::printf("%-14s %12s %12s %12s %12s %12s\n", "strategy", "turnaround",
              "service", "util", "latency", "blocking");
  for (const core::Series& s : core::paper_series()) {
    cfg.allocator = s.allocator;
    cfg.scheduler = s.scheduler;
    const core::RunMetrics m = core::run_once(cfg);
    std::printf("%-14s %12.1f %12.1f %12.3f %12.2f %12.2f\n",
                cfg.series_label().c_str(), m.turnaround.mean(), m.service.mean(),
                m.utilization, m.packet_latency.mean(), m.packet_blocking.mean());
  }
  return 0;
}
