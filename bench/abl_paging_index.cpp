// Ablation: Paging's four page-indexing schemes (row-major, snake, shuffled
// row-major, shuffled snake). Lo et al. and the paper both report the choice
// has "only a slight impact" — this bench regenerates that check on the
// stochastic uniform workload across the full load axis.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace procsim;
  const core::RunOptions opts = core::parse_run_options(argc, argv);

  core::FigureSpec spec;
  spec.plots = {{"abl_paging_index", "turnaround",
                 "Paging(0) indexing schemes, turnaround vs load, stochastic uniform",
                 &std::cout}};
  spec.loads = bench::loads_uniform();
  spec.base = bench::stochastic_base(workload::SideDistribution::kUniform);

  for (const auto indexing :
       {mesh::PageIndexing::kRowMajor, mesh::PageIndexing::kSnake,
        mesh::PageIndexing::kShuffledRowMajor, mesh::PageIndexing::kShuffledSnake}) {
    core::Series s;
    s.allocator = core::AllocatorSpec{"Paging(0)"};
    s.allocator.paging_indexing = indexing;
    s.scheduler = sched::Policy::kFcfs;
    spec.series.push_back(s);
  }
  // Note: series share the Paging(0) label; column order is the enum order
  // above (row-major, snake, shuffled row-major, shuffled snake).
  core::run_figure(spec, opts);
  return 0;
}
