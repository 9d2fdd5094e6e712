// Ablation (paper's future work, §6): the same strategies on a 2D torus.
// Wrap-around links shorten paths (dateline virtual channels keep wormhole
// routing deadlock-free), which mostly helps the dispersing strategies —
// non-contiguity costs less when the network diameter halves.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace procsim;
  const core::RunOptions opts = core::parse_run_options(argc, argv);

  for (const bool torus : {false, true}) {
    core::FigureSpec spec;
    spec.loads = bench::loads_uniform();
    spec.base = bench::stochastic_base(workload::SideDistribution::kUniform);
    spec.base.sys.net.torus = torus;
    spec.series = core::paper_series();
    spec.plots = {{torus ? "abl_torus_on" : "abl_torus_off", "latency",
                   std::string("packet latency vs load, stochastic uniform, 16x22 ") +
                       (torus ? "torus" : "mesh"),
                   &std::cout}};
    core::run_figure(spec, opts);
    std::cout << "\n";
  }
  return 0;
}
