#include <gtest/gtest.h>

#include <sstream>

#include "alloc/registry.hpp"
#include "core/experiment.hpp"
#include "core/experiment_spec.hpp"
#include "core/figure_runner.hpp"
#include "util/strings.hpp"

namespace {

using procsim::core::AggregateResult;
using procsim::core::AllocatorSpec;
using procsim::core::build_jobs;
using procsim::core::ExperimentConfig;
using procsim::core::FigureSpec;
using procsim::core::make_allocator;
using procsim::core::make_scheduler;
using procsim::core::paper_series;
using procsim::core::Plot;
using procsim::core::run_figure;
using procsim::core::run_once;
using procsim::core::run_replicated;
using procsim::core::RunMetrics;
using procsim::core::RunOptions;
using procsim::core::WorkloadKind;
using procsim::mesh::Geometry;

TEST(Factories, AllKnownAllocatorsConstructible) {
  for (const auto& name : procsim::alloc::known_allocators()) {
    const AllocatorSpec spec{name};
    const auto a = make_allocator(spec, Geometry(8, 8), 1);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->free_processors(), 64);
    EXPECT_EQ(a->name(), spec.label());
  }
}

TEST(Factories, AllocatorSpecValidatesAndNormalizes) {
  EXPECT_EQ(AllocatorSpec{"gabl"}.label(), "GABL");
  EXPECT_EQ(AllocatorSpec{"paging(2)"}.label(), "Paging(2)");
  EXPECT_THROW(AllocatorSpec{"no_such_allocator"}, std::invalid_argument);
  EXPECT_EQ(AllocatorSpec{}.label(), "GABL");  // default
}

TEST(Factories, SeriesLabels) {
  ExperimentConfig cfg;
  cfg.allocator = AllocatorSpec{"Paging(0)"};
  cfg.scheduler = procsim::sched::Policy::kSsd;
  EXPECT_EQ(cfg.series_label(), "Paging(0)(SSD)");
  cfg.allocator = AllocatorSpec{"GABL"};
  cfg.scheduler = procsim::sched::Policy::kFcfs;
  EXPECT_EQ(cfg.series_label(), "GABL(FCFS)");
}

TEST(Factories, PaperSeriesIsSixStrategyPairs) {
  const auto series = paper_series();
  ASSERT_EQ(series.size(), 6u);
}

TEST(BuildJobs, StochasticCountAndSorting) {
  procsim::core::WorkloadSpec spec;
  spec.kind = WorkloadKind::kStochastic;
  spec.job_count = 50;
  spec.stochastic.load = 0.01;
  const auto jobs = build_jobs(spec, Geometry(16, 22), 8, 7);
  ASSERT_EQ(jobs.size(), 50u);
  for (std::size_t i = 1; i < jobs.size(); ++i)
    EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
}

TEST(BuildJobs, TraceLoadControlsMeanInterarrival) {
  procsim::core::WorkloadSpec spec;
  spec.kind = WorkloadKind::kTrace;
  spec.load = 0.01;
  spec.replay.prefix = 4000;
  const auto jobs = build_jobs(spec, Geometry(16, 22), 8, 7);
  ASSERT_EQ(jobs.size(), 4000u);
  const double mean_ia = jobs.back().arrival / static_cast<double>(jobs.size() - 1);
  EXPECT_NEAR(mean_ia, 100.0, 10.0);  // 1/load
}

TEST(RunOnce, ProducesConsistentMetrics) {
  ExperimentConfig cfg;
  cfg.sys.geom = Geometry(16, 22);
  cfg.sys.target_completions = 100;
  cfg.workload.kind = WorkloadKind::kStochastic;
  cfg.workload.job_count = 100;
  cfg.workload.stochastic.load = 0.01;
  cfg.seed = 3;
  const RunMetrics m = run_once(cfg);
  EXPECT_EQ(m.completed, 100u);
  EXPECT_GT(m.turnaround.mean(), 0);
  EXPECT_GE(m.turnaround.mean(), m.service.mean());  // wait >= 0
  EXPECT_GT(m.packet_latency.mean(), 0);
  EXPECT_GE(m.packet_latency.mean(), m.packet_blocking.mean());
  EXPECT_GT(m.utilization, 0);
  EXPECT_LE(m.utilization, 1.0);
  EXPECT_GT(m.packets, 0u);
}

TEST(RunOnce, SameSeedSameResults) {
  ExperimentConfig cfg;
  cfg.sys.target_completions = 60;
  cfg.workload.job_count = 60;
  cfg.workload.stochastic.load = 0.02;
  cfg.seed = 11;
  const RunMetrics a = run_once(cfg);
  const RunMetrics b = run_once(cfg);
  EXPECT_DOUBLE_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(RunOnce, DifferentSeedsDiffer) {
  ExperimentConfig cfg;
  cfg.sys.target_completions = 60;
  cfg.workload.job_count = 60;
  cfg.workload.stochastic.load = 0.02;
  cfg.seed = 11;
  const RunMetrics a = run_once(cfg);
  cfg.seed = 12;
  const RunMetrics b = run_once(cfg);
  EXPECT_NE(a.turnaround.mean(), b.turnaround.mean());
}

TEST(Replicated, RunsAtLeastMinAndReportsIntervals) {
  ExperimentConfig cfg;
  cfg.sys.target_completions = 40;
  cfg.workload.job_count = 40;
  cfg.workload.stochastic.load = 0.01;
  procsim::stats::ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 3;
  const AggregateResult res = run_replicated(cfg, policy);
  EXPECT_GE(res.replications, 2u);
  EXPECT_LE(res.replications, 3u);
  ASSERT_TRUE(res.metrics.contains("turnaround"));
  ASSERT_TRUE(res.metrics.contains("utilization"));
  EXPECT_GT(res.metrics.at("turnaround").mean, 0);
}

TEST(FigureRunner, EmitsCsvWithAllSeries) {
  std::ostringstream out;
  FigureSpec spec;
  spec.plots = {Plot{"figtest", "turnaround", "test figure", &out}};
  spec.loads = {0.005, 0.01};
  spec.series = paper_series();
  spec.base.sys.target_completions = 30;
  spec.base.workload.source_spec = "uniform";
  spec.base.workload.job_count = 30;

  RunOptions opts;
  opts.fast = true;
  opts.min_reps = opts.max_reps = 1;

  run_figure(spec, opts);
  const std::string text = out.str();
  EXPECT_NE(text.find("# figtest"), std::string::npos);
  EXPECT_NE(text.find("GABL(FCFS)"), std::string::npos);
  EXPECT_NE(text.find("MBS(SSD)"), std::string::npos);
  // Two header comment lines + column header + 2 data rows.
  int rows = 0;
  for (const char c : text)
    if (c == '\n') ++rows;
  EXPECT_EQ(rows, 5);
}

TEST(FigureRunner, ParseRunOptions) {
  const char* argv[] = {"bench", "--fast", "--jobs=123", "--seed=9"};
  const RunOptions opts =
      procsim::core::parse_run_options(4, const_cast<char**>(argv));
  EXPECT_TRUE(opts.fast);
  EXPECT_EQ(opts.jobs, 123u);
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_EQ(opts.max_reps, 1u);  // fast forces single rep

  // Unknown flags and malformed numbers exit 2 with one line naming them
  // instead of running a sweep on defaults.
  const auto parse = [](const char* arg) {
    const char* args[] = {"./build/fig02", arg};
    (void)procsim::core::parse_run_options(2, const_cast<char**>(args));
  };
  const auto status2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse("--bogus=1"), status2, "^fig02: unknown option --bogus=1\n$");
  EXPECT_EXIT(parse("--benchmark_min_time=0.01"), status2, "unknown option");
  EXPECT_EXIT(parse("--threads=garbage"), status2,
              "^fig02: bad value 'garbage' for --threads");
  EXPECT_EXIT(parse("--threads="), status2, "bad value '' for --threads");
  EXPECT_EXIT(parse("--jobs=12x"), status2, "bad value '12x' for --jobs");
  EXPECT_EXIT(parse("--reps=-1"), status2, "bad value '-1' for --reps");
  // Zero jobs or replications is an error, not the spec's default job count
  // or one replication; zero threads (all hardware threads) and seed 0 stay.
  EXPECT_EXIT(parse("--reps=0"), status2,
              "^fig02: bad value '0' for --reps \\(expected a positive integer\\)\n$");
  EXPECT_EXIT(parse("--jobs=0"), status2,
              "^fig02: bad value '0' for --jobs \\(expected a positive integer\\)\n$");
  const char* zeros[] = {"bench", "--threads=0", "--seed=0", "--reps=1", "--jobs=1"};
  const RunOptions valid = procsim::core::parse_run_options(5, const_cast<char**>(zeros));
  EXPECT_EQ(valid.threads, 0u);
  EXPECT_EQ(valid.seed, 0u);
  EXPECT_EQ(valid.min_reps, 1u);
  EXPECT_EQ(valid.max_reps, 1u);
  EXPECT_EQ(valid.jobs, 1u);
  EXPECT_EXIT(parse("--seed=99999999999999999999"), status2, "for --seed");
}

TEST(FigureRunner, PositiveFlagValues) {
  // The shared --load parser of bench_swf_replay and trace_replay_tool.
  using procsim::core::parse_positive_flag;
  EXPECT_DOUBLE_EQ(parse_positive_flag("tool", "--load=0.01"), 0.01);
  EXPECT_DOUBLE_EQ(parse_positive_flag("tool", "--load=1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_positive_flag("tool", "--load=6"), 6.0);
  const auto status2 = ::testing::ExitedWithCode(2);
  for (const char* bad : {"--load=abc", "--load=0.01x", "--load=", "--load=0",
                          "--load=-1", "--load=inf", "--load=nan", "--load=+1"})
    EXPECT_EXIT((void)parse_positive_flag("tool", bad), status2,
                "^tool: bad value '.*' for --load \\(expected a finite number > 0\\)\n$")
        << bad;
}

TEST(ParseNumber, WholeTextFiniteNumbersOnly) {
  using procsim::util::parse_number;
  EXPECT_EQ(parse_number<std::uint64_t>("42"), 42u);
  EXPECT_EQ(parse_number<std::int32_t>("-7"), -7);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("1e-3"), 1e-3);
  EXPECT_EQ(parse_number<double>("-2"), -2.0);  // sign checks are the caller's
  for (const char* bad : {"", "abc", "12x", "0.01x", " 1", "1 ", "+1", "0x10"}) {
    EXPECT_FALSE(parse_number<std::uint64_t>(bad)) << bad;
    EXPECT_FALSE(parse_number<double>(bad)) << bad;
  }
  EXPECT_FALSE(parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_number<std::uint64_t>("99999999999999999999"));
  EXPECT_FALSE(parse_number<std::int32_t>("2147483648"));
  EXPECT_FALSE(parse_number<std::uint64_t>("1e3"));
  EXPECT_FALSE(parse_number<std::uint64_t>("2.5"));
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"})
    EXPECT_FALSE(parse_number<double>(bad)) << bad;
}

TEST(ExperimentSpec, MeshGeometryIsStrict) {
  using procsim::core::parse_mesh_geometry;
  const auto g = parse_mesh_geometry("16x22");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->width(), 16);
  EXPECT_EQ(g->length(), 22);
  EXPECT_TRUE(parse_mesh_geometry("4096X1").has_value());
  for (const char* bad : {"", "x", "16x", "x22", "16x22x", "+16x22", " 16x22", "16x 22",
                          "0x5", "5x0", "-4x4", "4097x1", "16.5x22", "1e1x2",
                          "99999999999x2"})
    EXPECT_FALSE(parse_mesh_geometry(bad).has_value()) << bad;
}

TEST(FigureRunner, UnknownMetricThrows) {
  std::ostringstream out;
  FigureSpec spec;
  spec.plots = {Plot{"bad", "no_such_metric", "", &out}};
  spec.loads = {0.01};
  spec.series = {paper_series()[0]};
  spec.base.sys.target_completions = 10;
  spec.base.workload.job_count = 10;
  RunOptions opts;
  opts.fast = true;
  EXPECT_THROW(run_figure(spec, opts), std::logic_error);
}

}  // namespace
