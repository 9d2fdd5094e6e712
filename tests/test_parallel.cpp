#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"
#include "des/rng.hpp"
#include "stats/replication.hpp"
#include "util/thread_pool.hpp"

namespace {

using procsim::core::ExperimentConfig;
using procsim::core::FigureSpec;
using procsim::core::GridSpec;
using procsim::core::paper_series;
using procsim::core::Plot;
using procsim::core::run_figure;
using procsim::core::run_grid;
using procsim::core::run_replicated;
using procsim::core::RunOptions;
using procsim::core::WorkloadKind;
using procsim::stats::ReplicationPolicy;
using procsim::util::parallel_for;
using procsim::util::resolve_threads;
using procsim::util::ThreadPool;

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ZeroRequestedStillRunsTasks) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 100;  // far more tasks than workers
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(&pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForInlineWithoutPool) {
  std::vector<int> order;
  parallel_for(nullptr, 5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(&pool, 8,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);  // 0 = all hardware threads
}

TEST(SubstreamSeed, DistinctStreamsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL})
    for (std::uint64_t stream = 0; stream < 32; ++stream)
      seen.insert(procsim::des::substream_seed(base, stream));
  EXPECT_EQ(seen.size(), 3u * 32u);  // no collisions across nearby inputs
  EXPECT_EQ(procsim::des::substream_seed(7, 3), procsim::des::substream_seed(7, 3));
}

// run_replicated is the serial sequential-stopping loop: it never stops
// below min_replications, and stops at max_replications when the precision
// target is out of reach.
ExperimentConfig tiny_experiment() {
  ExperimentConfig cfg;
  cfg.sys.target_completions = 30;
  cfg.workload.job_count = 30;
  cfg.workload.stochastic.load = 0.02;
  cfg.seed = 5;
  return cfg;
}

TEST(RunReplicated, MinAboveMaxStillRunsMin) {
  ReplicationPolicy policy;
  policy.min_replications = 5;
  policy.max_replications = 3;
  EXPECT_EQ(run_replicated(tiny_experiment(), policy).replications, 5u);
}

TEST(RunReplicated, HonorsReplicationCap) {
  ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 4;
  policy.max_relative_error = 0.0;  // unattainable: always runs to the cap
  EXPECT_EQ(run_replicated(tiny_experiment(), policy).replications, 4u);
}

FigureSpec small_figure() {
  FigureSpec spec;
  spec.loads = {0.005, 0.01, 0.02};
  spec.series = paper_series();
  spec.base.sys.target_completions = 25;
  spec.base.workload.kind = WorkloadKind::kStochastic;
  spec.base.workload.job_count = 25;
  return spec;
}

// Runs `spec` once with one plot per metric and returns each plot's CSV.
std::vector<std::string> figure_csvs(FigureSpec spec,
                                     const std::vector<std::string>& metrics,
                                     std::size_t threads, bool with_ci) {
  std::vector<std::ostringstream> outs(metrics.size());
  for (std::size_t i = 0; i < metrics.size(); ++i)
    spec.plots.push_back(Plot{"figpar", metrics[i], "parallel determinism", &outs[i]});
  RunOptions opts;
  opts.min_reps = opts.max_reps = 2;
  opts.seed = 123;
  opts.threads = threads;
  run_figure(spec, opts, with_ci);
  std::vector<std::string> csvs;
  for (const std::ostringstream& out : outs) csvs.push_back(out.str());
  return csvs;
}

std::string figure_csv(const FigureSpec& spec, std::size_t threads, bool with_ci) {
  return figure_csvs(spec, {"turnaround"}, threads, with_ci).front();
}

TEST(FigureRunner, ThreadCountDoesNotChangeCsvBytes) {
  const FigureSpec spec = small_figure();
  const std::string serial = figure_csv(spec, 1, true);
  EXPECT_EQ(figure_csv(spec, 2, true), serial);
  EXPECT_EQ(figure_csv(spec, 4, true), serial);
}

TEST(FigureRunner, StressMoreCellsThanThreads) {
  // 8 loads x 6 series = 48 cells on 3 workers: every worker cycles through
  // many queue pops, and the output must still match the serial bytes.
  FigureSpec spec = small_figure();
  spec.loads = {0.002, 0.004, 0.006, 0.008, 0.01, 0.015, 0.02, 0.03};
  spec.base.sys.target_completions = 15;
  spec.base.workload.job_count = 15;
  const std::string serial = figure_csv(spec, 1, false);
  const std::string par = figure_csv(spec, 3, false);
  EXPECT_EQ(par, serial);
  // 2 comment lines + header + 8 data rows.
  int rows = 0;
  for (const char c : par)
    if (c == '\n') ++rows;
  EXPECT_EQ(rows, 11);
}

TEST(FigureRunner, PlotsOfOneGridMatchOnePlotRuns) {
  // A two-plot figure reads both metrics from one run of its cells; each
  // plot prints the bytes a one-plot run of its metric prints, serially and
  // on the cell farm.
  const FigureSpec spec = small_figure();
  const std::string turnaround = figure_csv(spec, 1, true);
  const std::string latency = figure_csvs(spec, {"latency"}, 1, true).front();
  EXPECT_NE(turnaround, latency);
  for (const std::size_t threads : {1, 3}) {
    const std::vector<std::string> both =
        figure_csvs(spec, {"turnaround", "latency"}, threads, true);
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0], turnaround) << threads;
    EXPECT_EQ(both[1], latency) << threads;
  }
}

TEST(RunGrid, OutputsShareOneRunOfEachCell) {
  // Three tables over a 2x2 grid build each cell's configuration once.
  std::atomic<int> built{0};
  GridSpec grid;
  grid.corner = "load";
  grid.rows = {"0.01", "0.02"};
  grid.cols = {"a", "b"};
  grid.cell = [&](std::size_t row, std::size_t) {
    ++built;
    ExperimentConfig cfg = tiny_experiment();
    cfg.workload.stochastic.load = row == 0 ? 0.01 : 0.02;
    return cfg;
  };
  RunOptions opts;
  opts.min_reps = opts.max_reps = 1;
  opts.threads = 2;
  std::ostringstream turnaround;
  std::ostringstream latency;
  std::ostringstream service;
  run_grid(grid,
           {{"turnaround", &turnaround}, {"latency", &latency}, {"service", &service}},
           opts);
  EXPECT_EQ(built.load(), 4);
  for (const std::ostringstream* out : {&turnaround, &latency, &service})
    EXPECT_EQ(out->str().rfind("load,a,b\n0.01,", 0), 0u);
}

TEST(FigureRunner, ParseThreadsOption) {
  const char* argv[] = {"bench", "--threads=4"};
  const RunOptions opts = procsim::core::parse_run_options(2, const_cast<char**>(argv));
  EXPECT_EQ(opts.threads, 4u);
  const RunOptions defaults = procsim::core::parse_run_options(0, nullptr);
  EXPECT_EQ(defaults.threads, 1u);
}

}  // namespace
