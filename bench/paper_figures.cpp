// paper_figures: the paper's figures 2-16 as DIR/fig02.csv ... DIR/fig16.csv.
//
//   paper_figures --out-dir=DIR [--fast] [--jobs=N] [--reps=N] [--seed=N]
//                 [--threads=N] [--obs-probe]
//
// The 15 figures plot five metrics of 7 grids of cells. A cell replicates
// until every paper aggregate meets the stopping rule, whatever metric a
// figure reads from it, so each grid runs once and feeds all its figures.
// DIR is created and every file opened before the first cell runs. Exit 2 on
// a usage error (one stderr line), 3 on an unwritable output.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench_common.hpp"
#include "workload/source_registry.hpp"

using namespace procsim;

namespace {

/// The caption of a figure that plots `metric` over a grid of `base`.
std::string title(std::string_view metric, const core::ExperimentConfig& base) {
  const char* plotted = metric == "turnaround"    ? "Turnaround time vs system load"
                        : metric == "service"     ? "Service time vs system load"
                        : metric == "utilization" ? "System utilization at heavy load"
                        : metric == "blocking"    ? "Packet blocking time vs system load"
                                                  : "Packet latency vs system load";
  const std::string kind = workload::parse_source_spec(base.workload.source_spec)->kind;
  const std::string jobs =
      kind == "real" ? "real workload" : "stochastic " + kind + " side lengths";
  return std::string(plotted) + ", all-to-all, " + jobs + ", 16x22 mesh";
}

}  // namespace

int main(int argc, char** argv) {
  // --out-dir is this driver's own flag; the rest are the shared effort flags.
  std::string out_dir;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 0 && arg.starts_with("--out-dir="))
      out_dir = arg.substr(arg.find('=') + 1);
    else
      args.push_back(argv[i]);
  }
  const core::RunOptions opts =
      core::parse_run_options(static_cast<int>(args.size()), args.data());
  if (out_dir.empty()) core::usage_error("paper_figures", "missing --out-dir=DIR");

  const auto series = core::paper_series();
  const auto real = bench::trace_base();
  const auto uniform = bench::stochastic_base(workload::SideDistribution::kUniform);
  const auto expo = bench::stochastic_base(workload::SideDistribution::kExponential);
  // Each figure plots one metric of its grid; titles and streams come below.
  const auto fig = [](const char* id, const char* metric) {
    return core::Plot{id, metric, "", nullptr};
  };
  std::vector<core::FigureSpec> grids = {
      {bench::loads_real_turnaround(), series, real, {fig("fig02", "turnaround")}},
      {bench::loads_real(), series, real,
       {fig("fig05", "service"), fig("fig11", "blocking"), fig("fig14", "latency")}},
      {bench::loads_uniform(), series, uniform,
       {fig("fig03", "turnaround"), fig("fig06", "service"), fig("fig12", "blocking"),
        fig("fig15", "latency")}},
      {bench::loads_exponential(), series, expo,
       {fig("fig04", "turnaround"), fig("fig07", "service"), fig("fig13", "blocking"),
        fig("fig16", "latency")}},
      {{0.05}, series, bench::saturated(real), {fig("fig08", "utilization")}},
      {{0.1}, series, bench::saturated(uniform), {fig("fig09", "utilization")}},
      {{0.15}, series, bench::saturated(expo), {fig("fig10", "utilization")}},
  };

  std::error_code ignored;  // a directory that cannot be made fails the first open
  std::filesystem::create_directories(out_dir, ignored);
  std::deque<std::ofstream> files;  // a deque keeps the plots' streams in place
  std::size_t cells = 0;
  for (core::FigureSpec& grid : grids) {
    for (core::Plot& plot : grid.plots) {
      const std::string path = out_dir + "/" + plot.id + ".csv";
      if (!files.emplace_back(path)) {
        std::cerr << "paper_figures: cannot write " << path << "\n";
        return 3;
      }
      plot.title = title(plot.metric, grid.base);
      plot.out = &files.back();
    }
    cells += grid.loads.size() * grid.series.size();
  }
  std::cerr << "paper_figures: " << files.size() << " figures from " << grids.size()
            << " grids, " << cells << " cells\n";

  for (const core::FigureSpec& grid : grids)
    core::run_figure(grid, opts, /*with_ci=*/true);
  if (std::any_of(files.begin(), files.end(), [](const auto& f) { return !f; })) {
    std::cerr << "paper_figures: write failed in " << out_dir << "\n";
    return 3;
  }
  return 0;
}
