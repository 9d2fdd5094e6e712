#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "des/rng.hpp"
#include "mesh/coord.hpp"
#include "stats/welford.hpp"
#include "workload/paragon_model.hpp"
#include "workload/shape.hpp"
#include "workload/stochastic.hpp"
#include "workload/swf.hpp"
#include "workload/trace_replay.hpp"

namespace {

using procsim::des::Xoshiro256SS;
using procsim::mesh::Geometry;
using procsim::workload::arrival_factor_for_load;
using procsim::workload::compute_stats;
using procsim::workload::generate_paragon_trace;
using procsim::workload::generate_stochastic;
using procsim::workload::Job;
using procsim::workload::make_trace_jobs;
using procsim::workload::ParagonModelParams;
using procsim::workload::parse_swf;
using procsim::workload::shape_for_processors;
using procsim::workload::SideDistribution;
using procsim::workload::StochasticParams;
using procsim::workload::TraceJob;
using procsim::workload::TraceReplayParams;

// -------------------------------------------------------------------- shape

TEST(Shape, ExactRectanglesForExactAreas) {
  const Geometry g(16, 22);
  EXPECT_EQ(shape_for_processors(1, g), std::make_pair(1, 1));
  EXPECT_EQ(shape_for_processors(16, g), std::make_pair(4, 4));
  EXPECT_EQ(shape_for_processors(12, g), std::make_pair(3, 4));  // 3×4 beats 4×3? same area; perim equal; first found a=3
  EXPECT_EQ(shape_for_processors(352, g), std::make_pair(16, 22));
}

TEST(Shape, MinimalAreaAtLeastP) {
  const Geometry g(16, 22);
  for (std::int32_t p = 1; p <= 352; ++p) {
    const auto [a, b] = shape_for_processors(p, g);
    EXPECT_GE(a * b, p);
    EXPECT_LE(a, 16);
    EXPECT_LE(b, 22);
    // Minimality: no rectangle with smaller area fits p.
    for (std::int32_t w = 1; w <= 16; ++w) {
      const std::int32_t l = (p + w - 1) / w;
      if (l <= 22) {
        EXPECT_LE(a * b, w * l) << "p=" << p;
      }
    }
  }
}

TEST(Shape, PrefersSquareAmongEqualAreas) {
  const Geometry g(16, 22);
  const auto [a, b] = shape_for_processors(36, g);
  EXPECT_EQ(a * b, 36);
  EXPECT_EQ(a + b, 12);  // 6×6, the minimal perimeter
}

TEST(Shape, RejectsBadInputs) {
  const Geometry g(4, 4);
  EXPECT_THROW((void)shape_for_processors(0, g), std::invalid_argument);
  EXPECT_THROW((void)shape_for_processors(17, g), std::invalid_argument);
}

// --------------------------------------------------------------- stochastic

TEST(Stochastic, ArrivalsAreMonotoneWithCorrectRate) {
  Xoshiro256SS rng(1);
  StochasticParams p;
  p.load = 0.02;
  const auto jobs = generate_stochastic(p, Geometry(16, 22), 20000, rng);
  ASSERT_EQ(jobs.size(), 20000u);
  double prev = 0;
  for (const Job& j : jobs) {
    EXPECT_GE(j.arrival, prev);
    prev = j.arrival;
  }
  // Mean inter-arrival ~ 1/load = 50.
  EXPECT_NEAR(jobs.back().arrival / 20000.0, 50.0, 1.5);
}

TEST(Stochastic, UniformSidesCoverFullRange) {
  Xoshiro256SS rng(2);
  StochasticParams p;
  p.side_dist = SideDistribution::kUniform;
  const auto jobs = generate_stochastic(p, Geometry(16, 22), 5000, rng);
  std::int32_t wmin = 99, wmax = 0, lmin = 99, lmax = 0;
  for (const Job& j : jobs) {
    wmin = std::min(wmin, j.width);
    wmax = std::max(wmax, j.width);
    lmin = std::min(lmin, j.length);
    lmax = std::max(lmax, j.length);
    EXPECT_EQ(j.processors, j.width * j.length);
  }
  EXPECT_EQ(wmin, 1);
  EXPECT_EQ(wmax, 16);
  EXPECT_EQ(lmin, 1);
  EXPECT_EQ(lmax, 22);
}

TEST(Stochastic, UniformSideMeansMatchTheory) {
  Xoshiro256SS rng(3);
  StochasticParams p;
  const auto jobs = generate_stochastic(p, Geometry(16, 22), 30000, rng);
  procsim::stats::Welford w, l;
  for (const Job& j : jobs) {
    w.add(j.width);
    l.add(j.length);
  }
  EXPECT_NEAR(w.mean(), 8.5, 0.1);   // E[U[1,16]]
  EXPECT_NEAR(l.mean(), 11.5, 0.15); // E[U[1,22]]
}

TEST(Stochastic, ExponentialSidesClampedWithHalfSideMean) {
  Xoshiro256SS rng(4);
  StochasticParams p;
  p.side_dist = SideDistribution::kExponential;
  const auto jobs = generate_stochastic(p, Geometry(16, 22), 30000, rng);
  procsim::stats::Welford w;
  for (const Job& j : jobs) {
    EXPECT_GE(j.width, 1);
    EXPECT_LE(j.width, 16);
    w.add(j.width);
  }
  // Clamped Exp(8) over [1,16]: mean below 8, well above 1.
  EXPECT_GT(w.mean(), 5.0);
  EXPECT_LT(w.mean(), 8.0);
}

TEST(Stochastic, MessagePlanAndDemand) {
  Xoshiro256SS rng(5);
  StochasticParams p;
  p.mean_messages = 5.0;
  p.packet_len = 8;
  const auto jobs = generate_stochastic(p, Geometry(16, 22), 20000, rng);
  procsim::stats::Welford msgs;
  for (const Job& j : jobs) {
    if (j.processors == 1) {
      EXPECT_TRUE(j.message_plan.empty());
      continue;
    }
    EXPECT_GE(j.total_messages(), 1);
    EXPECT_DOUBLE_EQ(j.demand, static_cast<double>(j.total_messages()) * 8.0);
    msgs.add(static_cast<double>(j.total_messages()));
  }
  EXPECT_NEAR(msgs.mean(), 5.0, 0.5);  // num_mes
}

TEST(Stochastic, DeterministicPerSeed) {
  Xoshiro256SS a(9), b(9);
  StochasticParams p;
  const auto j1 = generate_stochastic(p, Geometry(8, 8), 100, a);
  const auto j2 = generate_stochastic(p, Geometry(8, 8), 100, b);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(j1[i].arrival, j2[i].arrival);
    EXPECT_EQ(j1[i].width, j2[i].width);
    EXPECT_EQ(j1[i].message_plan, j2[i].message_plan);
  }
}

TEST(Stochastic, RejectsNonPositiveLoad) {
  Xoshiro256SS rng(1);
  StochasticParams p;
  p.load = 0;
  EXPECT_THROW((void)generate_stochastic(p, Geometry(4, 4), 10, rng),
               std::invalid_argument);
}

TEST(Stochastic, RejectsMeanMessagesAboveTheCap) {
  Xoshiro256SS rng(1);
  StochasticParams p;
  p.mean_messages = 800;  // the per-job cap itself is allowed
  EXPECT_EQ(generate_stochastic(p, Geometry(4, 4), 3, rng).size(), 3u);
  for (const double mean : {800.5, 1e300, std::numeric_limits<double>::quiet_NaN()}) {
    p.mean_messages = mean;
    EXPECT_THROW((void)generate_stochastic(p, Geometry(4, 4), 1, rng),
                 std::invalid_argument)
        << mean;
  }
}

// ------------------------------------------------------------ paragon model

TEST(Paragon, MatchesPublishedCharacteristics) {
  Xoshiro256SS rng(6);
  ParagonModelParams params;
  const auto trace = generate_paragon_trace(params, rng);
  const auto stats = compute_stats(trace);
  EXPECT_EQ(stats.jobs, 10658u);
  // Paper: mean inter-arrival 1186.7 s, mean size 34.5 nodes.
  EXPECT_NEAR(stats.mean_interarrival, 1186.7, 60.0);
  EXPECT_NEAR(stats.mean_size, 34.5, 5.0);
  EXPECT_LE(stats.max_size, 352);
  // "distribution favouring sizes that are non-powers of two"
  EXPECT_LT(stats.power_of_two_fraction, 0.25);
}

TEST(Paragon, RuntimesAreHeavyTailed) {
  Xoshiro256SS rng(7);
  ParagonModelParams params;
  params.jobs = 20000;
  const auto trace = generate_paragon_trace(params, rng);
  double max_rt = 0;
  procsim::stats::Welford rt;
  for (const TraceJob& j : trace) {
    rt.add(j.runtime);
    max_rt = std::max(max_rt, j.runtime);
  }
  EXPECT_GT(max_rt, 10 * rt.mean());  // heavy tail
  EXPECT_GT(rt.mean(), 1000);
  EXPECT_LT(rt.mean(), 20000);
}

// ---------------------------------------------------------------------- SWF

constexpr const char* kSampleSwf = R"(; SWF header comment
; MaxProcs: 352
  1  0    10  3600  32 -1 -1  32  4000 -1 1 1 1 1 1 1 -1 -1
  2  120  5   60    1  -1 -1   1    60 -1 1 1 1 1 1 1 -1 -1
  3  500  0   7200 400 -1 -1 400  8000 -1 1 1 1 1 1 1 -1 -1
  4  900  2   -1    16 -1 -1  16   120 -1 1 1 1 1 1 1 -1 -1
  5  -50  1   10     8 -1 -1   8    20 -1 1 1 1 1 1 1 -1 -1
)";

TEST(Swf, ParsesRecordsAndSkipsComments) {
  std::istringstream in(kSampleSwf);
  const auto jobs = parse_swf(in);
  // Job 5 dropped (negative submit); others kept.
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_DOUBLE_EQ(jobs[0].submit, 0);
  EXPECT_DOUBLE_EQ(jobs[0].runtime, 3600);
  EXPECT_EQ(jobs[0].processors, 32);
}

TEST(Swf, MaxProcessorsFilters) {
  std::istringstream in(kSampleSwf);
  const auto jobs = parse_swf(in, 352);
  ASSERT_EQ(jobs.size(), 3u);  // the 400-proc job is dropped too
  for (const auto& j : jobs) EXPECT_LE(j.processors, 352);
}

TEST(Swf, RuntimeFallsBackToRequestedTime) {
  std::istringstream in(kSampleSwf);
  const auto jobs = parse_swf(in, 352);
  // Job 4 has run = -1 but requested time 120.
  EXPECT_DOUBLE_EQ(jobs.back().runtime, 120);
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW((void)procsim::workload::load_swf_file("/nonexistent/trace.swf"),
               std::runtime_error);
}

TEST(Swf, ShortAndMalformedRecordsAreSkipped) {
  std::istringstream in(
      "; header\n"
      "\n"
      "1 0 5 100 16\n"          // exactly 5 fields: still a record
      "2 10 3\n"                // short record: skipped
      "garbage line here\n"     // non-numeric: skipped (no usable fields)
      "3 20 5 100 8 -1 -1 8 100 -1 1 1 1 1 1 1 -1 -1\n"
      "4 30 5 100 3000000000\n"  // above int32: skipped, not cast
      "5 40 5 100 0.5\n");       // under one processor: no usable size
  const auto jobs = parse_swf(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].processors, 16);
  EXPECT_EQ(jobs[1].processors, 8);
}

TEST(Swf, FiveFieldRecordFallsBackToUsedProcessors) {
  // With no field 8 at all, size must come from field 5 (used processors).
  std::istringstream in("1 0 5 60 9\n");
  const auto jobs = parse_swf(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].processors, 9);
  EXPECT_DOUBLE_EQ(jobs[0].runtime, 60);
}

TEST(Swf, NegativeRuntimeWithoutRequestedTimeIsSkipped) {
  std::istringstream in(
      "1 0 5 -1 8 -1 -1 8 -1 -1 1 1 1 1 1 1 -1 -1\n"   // no usable runtime
      "2 5 5 -1 8 -1 -1 8 70 -1 1 1 1 1 1 1 -1 -1\n"); // req-time rescue
  const auto jobs = parse_swf(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].runtime, 70);
}

TEST(Swf, MiniFixtureGoldenStats) {
  // tests/data/mini.swf, filtered to a 352-node partition: jobs 5, 6 and 8
  // are dropped by the parser, job 7 (400 procs) by the filter. Six survive
  // with hand-computable statistics.
  const auto jobs = procsim::workload::load_swf_file(
      std::string(PROCSIM_TEST_DATA_DIR) + "/mini.swf", 352);
  ASSERT_EQ(jobs.size(), 6u);
  const auto stats = compute_stats(jobs);
  EXPECT_EQ(stats.jobs, 6u);
  EXPECT_DOUBLE_EQ(stats.mean_interarrival, 160.0);      // (800 - 0) / 5
  EXPECT_NEAR(stats.mean_size, 98.0 / 6.0, 1e-12);       // 16+32+25+10+8+7
  EXPECT_NEAR(stats.mean_runtime, 1225.0 / 6.0, 1e-12);  // 100+200+300+500+50+75
  EXPECT_DOUBLE_EQ(stats.power_of_two_fraction, 0.5);    // 16, 32, 8 of six
  EXPECT_EQ(stats.max_size, 32);

  // Unfiltered, the 400-proc job survives too.
  const auto all = procsim::workload::load_swf_file(
      std::string(PROCSIM_TEST_DATA_DIR) + "/mini.swf");
  EXPECT_EQ(all.size(), 7u);
  EXPECT_EQ(compute_stats(all).max_size, 400);
}

TEST(Swf, StatsOnEmptyTrace) {
  const auto stats = compute_stats({});
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_size, 0);
}

// ------------------------------------------------------------- trace replay

TEST(Replay, ArrivalFactorForLoad) {
  // load 0.01 jobs/unit on a trace with mean inter-arrival 1186.7 s:
  // f = 1 / (0.01 * 1186.7).
  EXPECT_NEAR(arrival_factor_for_load(0.01, 1186.7) * 1186.7, 100.0, 1e-9);
  EXPECT_THROW((void)arrival_factor_for_load(0, 10), std::invalid_argument);
}

TEST(Replay, ArrivalFactorDegenerateTraceFallsBackToNeutral) {
  // Regression: an empty or single-job trace has no inter-arrival
  // information (compute_stats reports 0; a pathological caller could even
  // pass NaN). The factor must be the defined neutral 1.0, not a blind
  // division.
  EXPECT_DOUBLE_EQ(arrival_factor_for_load(0.01, 0), 1.0);
  EXPECT_DOUBLE_EQ(arrival_factor_for_load(0.01, -5), 1.0);
  EXPECT_DOUBLE_EQ(arrival_factor_for_load(0.01, std::nan("")), 1.0);
  EXPECT_DOUBLE_EQ(
      arrival_factor_for_load(0.01, std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_DOUBLE_EQ(arrival_factor_for_load(0.01, compute_stats({}).mean_interarrival),
                   1.0);
}

TEST(Replay, ScalesArrivalsAndKeepsSizes) {
  Xoshiro256SS rng(8);
  const std::vector<TraceJob> trace{{1000, 600, 7}, {3000, 60, 33}};
  TraceReplayParams params;
  params.arrival_factor = 0.5;
  const auto jobs = make_trace_jobs(trace, params, Geometry(16, 22), rng);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 500);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 1500);
  EXPECT_EQ(jobs[0].processors, 7);
  EXPECT_EQ(jobs[1].processors, 33);
  EXPECT_DOUBLE_EQ(jobs[0].demand, 600);  // SSD key = recorded runtime
  EXPECT_DOUBLE_EQ(jobs[0].trace_runtime, 600);
}

TEST(Replay, ShapesAreDerivedNearSquare) {
  Xoshiro256SS rng(9);
  const std::vector<TraceJob> trace{{0, 100, 16}};
  TraceReplayParams params;
  const auto jobs = make_trace_jobs(trace, params, Geometry(16, 22), rng);
  EXPECT_EQ(jobs[0].width, 4);
  EXPECT_EQ(jobs[0].length, 4);
}

TEST(Replay, MessageCountScalesWithRuntime) {
  Xoshiro256SS rng(10);
  std::vector<TraceJob> trace;
  for (int i = 0; i < 3000; ++i) trace.push_back({i * 10.0, 100.0, 16});
  for (int i = 0; i < 3000; ++i) trace.push_back({30000 + i * 10.0, 10000.0, 16});
  TraceReplayParams params;
  params.runtime_scale = 20;
  const auto jobs = make_trace_jobs(trace, params, Geometry(16, 22), rng);
  procsim::stats::Welford short_jobs, long_jobs;
  for (std::size_t i = 0; i < 3000; ++i)
    short_jobs.add(static_cast<double>(jobs[i].total_messages()));
  for (std::size_t i = 3000; i < 6000; ++i)
    long_jobs.add(static_cast<double>(jobs[i].total_messages()));
  EXPECT_NEAR(short_jobs.mean(), 5.0, 1.0);   // 100/20
  EXPECT_GT(long_jobs.mean(), 50 * short_jobs.mean());
  for (const Job& j : jobs) EXPECT_LE(j.total_messages(), 800);
}

TEST(Replay, PrefixLimitsJobs) {
  Xoshiro256SS rng(11);
  std::vector<TraceJob> trace(100, TraceJob{0, 10, 4});
  TraceReplayParams params;
  params.prefix = 25;
  const auto jobs = make_trace_jobs(trace, params, Geometry(16, 22), rng);
  EXPECT_EQ(jobs.size(), 25u);
}

TEST(Replay, OversizedTraceJobsClampToMesh) {
  Xoshiro256SS rng(12);
  const std::vector<TraceJob> trace{{0, 10, 10000}};
  TraceReplayParams params;
  const auto jobs = make_trace_jobs(trace, params, Geometry(16, 22), rng);
  EXPECT_EQ(jobs[0].processors, 352);
}

}  // namespace
