// Ablation: Paging's size_index. Larger pages buy contiguity but create
// internal fragmentation that grows with size_index (paper §3) — visible
// here as utilization loss and rising turnaround.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace procsim;
  const core::RunOptions opts = core::parse_run_options(argc, argv);

  core::FigureSpec spec;
  spec.plots = {{"abl_paging_size", "turnaround",
                 "Paging(k) page size k=0..3, turnaround vs load, stochastic uniform",
                 &std::cout}};
  spec.loads = bench::loads_uniform();
  spec.base = bench::stochastic_base(workload::SideDistribution::kUniform);

  for (const std::int32_t k : {0, 1, 2, 3}) {
    core::Series s;
    s.allocator = core::AllocatorSpec{"Paging(" + std::to_string(k) + ")"};
    s.scheduler = sched::Policy::kFcfs;
    spec.series.push_back(s);
  }
  core::run_figure(spec, opts);
  return 0;
}
