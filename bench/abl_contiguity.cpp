// Ablation: how much is contiguity worth? GABL (contiguity-seeking
// non-contiguous) vs Random scatter (no contiguity at all) vs the contiguous
// First-Fit/Best-Fit baselines (full contiguity, external fragmentation).
// Latency rewards contiguity; turnaround punishes the contiguous baselines'
// fragmentation-induced queueing — the paper's core trade-off in one table.

#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace procsim;
  const core::RunOptions opts = core::parse_run_options(argc, argv);

  core::FigureSpec spec;
  spec.loads = bench::loads_uniform();
  spec.base = bench::stochastic_base(workload::SideDistribution::kUniform);
  for (const char* name : {"GABL", "Random", "FirstFit", "BestFit"}) {
    core::Series s;
    s.allocator = core::AllocatorSpec{name};
    s.scheduler = sched::Policy::kFcfs;
    spec.series.push_back(s);
  }
  // Both tables read the same cells; the latency table prints second.
  const auto plot = [](const std::string& metric, std::ostream& out) {
    return core::Plot{"abl_contiguity_" + metric, metric,
                      metric + " vs load: GABL vs Random scatter vs contiguous FF/BF, " +
                          "stochastic uniform",
                      &out};
  };
  std::ostringstream turnaround;
  std::ostringstream latency;
  spec.plots = {plot("turnaround", turnaround), plot("latency", latency)};
  core::run_figure(spec, opts);
  std::cout << turnaround.str() << "\n" << latency.str() << "\n";
  return 0;
}
