#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"
#include "des/rng.hpp"
#include "mesh/coord.hpp"
#include "stats/welford.hpp"
#include "workload/source.hpp"
#include "workload/source_registry.hpp"

namespace {

using procsim::des::substream_seed;
using procsim::des::Xoshiro256SS;
using procsim::mesh::Geometry;
using procsim::stats::Welford;
using procsim::workload::BurstyParams;
using procsim::workload::BurstySource;
using procsim::workload::generate_paragon_trace;
using procsim::workload::generate_stochastic;
using procsim::workload::Job;
using procsim::workload::make_source;
using procsim::workload::make_trace_jobs;
using procsim::workload::known_sources;
using procsim::workload::ParagonModelParams;
using procsim::workload::parse_source_spec;
using procsim::workload::SaturationParams;
using procsim::workload::SaturationSource;
using procsim::workload::Source;
using procsim::workload::SourceOverrides;
using procsim::workload::StochasticParams;
using procsim::workload::StochasticSource;
using procsim::workload::TraceReplayParams;
using procsim::workload::TraceSource;
using procsim::workload::VectorSource;

std::string fixture_path() {
  return std::string(PROCSIM_TEST_DATA_DIR) + "/mini.swf";
}

std::vector<Job> drain(Source& src, std::uint64_t seed, std::size_t cap = 1 << 20) {
  src.reset(seed);
  std::vector<Job> out;
  while (out.size() < cap) {
    const auto peeked = src.peek_arrival();
    auto job = src.next_job();
    if (!job) {
      EXPECT_FALSE(peeked.has_value());
      break;
    }
    EXPECT_TRUE(peeked.has_value());
    if (peeked) {
      EXPECT_DOUBLE_EQ(*peeked, job->arrival);
    }
    out.push_back(std::move(*job));
  }
  return out;
}

void expect_same_jobs(const std::vector<Job>& a, const std::vector<Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].width, b[i].width);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].processors, b[i].processors);
    EXPECT_EQ(a[i].message_plan, b[i].message_plan);
    EXPECT_DOUBLE_EQ(a[i].demand, b[i].demand);
    EXPECT_DOUBLE_EQ(a[i].trace_runtime, b[i].trace_runtime);
  }
}

// ---------------------------------------------------------------- registry

TEST(SourceRegistry, KnownSourcesRoundTripThroughName) {
  // Mirrors test_registry: every listed kind constructs, and the constructed
  // source's name() is itself an accepted spec that reconstructs.
  const Geometry g(16, 22);
  for (std::string spec : known_sources()) {
    if (spec == "swf:<path>") spec = "swf:" + fixture_path();
    const auto s = make_source(spec, g);
    ASSERT_NE(s, nullptr) << spec;
    EXPECT_EQ(s->name(), spec);
    const auto again = make_source(s->name(), g);
    EXPECT_EQ(again->name(), s->name());
  }
}

TEST(SourceRegistry, CanonicalSpellingNormalisesCaseAndKeyOrder) {
  const auto spec = parse_source_spec("Bursty;PHASE=16;b=4");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, "bursty");
  EXPECT_EQ(spec->canonical, "bursty;b=4;phase=16");
  const auto s = make_source("Bursty;PHASE=16;b=4", Geometry(8, 8));
  EXPECT_EQ(s->name(), "bursty;b=4;phase=16");
}

TEST(SourceRegistry, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(parse_source_spec("").has_value());
  EXPECT_FALSE(parse_source_spec("nosuch").has_value());
  EXPECT_FALSE(parse_source_spec("uniform:arg").has_value());  // arg is swf-only
  EXPECT_FALSE(parse_source_spec("swf").has_value());          // missing path
  EXPECT_FALSE(parse_source_spec("uniform;load").has_value()); // no '='
  EXPECT_FALSE(parse_source_spec("uniform;=3").has_value());   // empty key
  EXPECT_FALSE(parse_source_spec("uniform;load=").has_value());      // empty value
  EXPECT_FALSE(parse_source_spec("uniform;load=1;load=2").has_value());  // dup
  EXPECT_TRUE(parse_source_spec("SWF:some/path.swf").has_value());
}

TEST(SourceRegistry, MakeSourceFailsFastListingKnownKinds) {
  try {
    (void)make_source("nosuch", Geometry(8, 8));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("saturation"), std::string::npos);
  }
  EXPECT_THROW((void)make_source("uniform;bogus=1", Geometry(8, 8)),
               std::invalid_argument);
  EXPECT_THROW((void)make_source("uniform;load=oops", Geometry(8, 8)),
               std::invalid_argument);
  EXPECT_THROW((void)make_source("uniform;load=-1", Geometry(8, 8)),
               std::invalid_argument);
  EXPECT_THROW((void)make_source("saturation;dist=weird", Geometry(8, 8)),
               std::invalid_argument);
  EXPECT_THROW((void)make_source("saturation;n=2.5", Geometry(8, 8)),
               std::invalid_argument);
  // Non-finite and out-of-range numbers fail like malformed ones: a NaN or
  // infinite load or burst ratio would hang or abort the stream, and a mean
  // message count above the per-job cap overflows the count draw or
  // exhausts memory.
  for (const char* spec :
       {"uniform;load=inf", "uniform;load=nan", "uniform;load=1e999",
        "bursty;b=inf", "bursty;phase=nan", "real;f=inf", "real;f=nan",
        "uniform;mes=inf", "uniform;jobs=1e3", "uniform;jobs=-1",
        "saturation;n=99999999999999999999", "uniform;mes=1e300",
        "saturation;mes=1e12", "bursty;mes=1e9"})
    EXPECT_THROW((void)make_source(spec, Geometry(8, 8)), std::invalid_argument)
        << spec;
  EXPECT_THROW((void)make_source("swf:/nonexistent/trace.swf", Geometry(8, 8)),
               std::runtime_error);
}

TEST(SourceRegistry, SpecKeysWinOverDriverOverrides) {
  const Geometry g(16, 22);
  SourceOverrides o;
  o.load = 0.5;
  o.count = 7;
  // Spec pins both: the overrides must not leak through.
  auto pinned = make_source("uniform;load=0.02;jobs=3", g, o);
  auto jobs = drain(*pinned, 1);
  EXPECT_EQ(jobs.size(), 3u);
  // jobs=3 at load 0.02: expected spacing ~50 time units, not ~2.
  EXPECT_GT(jobs.back().arrival / 3.0, 10.0);
  // No spec keys: overrides apply.
  auto driven = make_source("uniform", g, o);
  EXPECT_EQ(drain(*driven, 1).size(), 7u);
}

TEST(SourceRegistry, UnboundedSyntheticStreamsCannotBeMaterialised) {
  const Geometry g(8, 8);
  // jobs=0 pins an unbounded stream: fine to simulate, fatal to drain.
  EXPECT_FALSE(make_source("uniform;jobs=0", g)->bounded());
  EXPECT_FALSE(make_source("bursty;jobs=0", g)->bounded());
  EXPECT_TRUE(make_source("uniform", g)->bounded());
  EXPECT_TRUE(make_source("swf:" + fixture_path(), g)->bounded());

  procsim::core::WorkloadSpec spec;
  spec.source_spec = "uniform;jobs=0";
  EXPECT_THROW((void)procsim::core::build_jobs(spec, g, 8, 1), std::invalid_argument);
}

// ------------------------------------------------- stream/eager equivalence

TEST(StochasticSource, StreamsTheExactEagerVector) {
  const Geometry g(16, 22);
  StochasticParams p;
  p.load = 0.02;
  p.mean_messages = 5;
  Xoshiro256SS rng(99);
  const auto eager = generate_stochastic(p, g, 300, rng);

  StochasticSource src(p, g, 300, "uniform");
  expect_same_jobs(drain(src, 99), eager);
}

TEST(TraceSource, ParagonStreamsTheExactEagerVector) {
  const Geometry g(16, 22);
  ParagonModelParams model;
  model.jobs = 400;
  TraceReplayParams replay;
  replay.prefix = 250;

  // The eager path: one RNG seeds trace generation then job conversion.
  Xoshiro256SS rng(4242);
  const auto trace = generate_paragon_trace(model, rng);
  TraceReplayParams scaled = replay;
  scaled.arrival_factor = procsim::workload::arrival_factor_for_load(
      0.01, procsim::workload::compute_stats(trace).mean_interarrival);
  const auto eager = make_trace_jobs(trace, scaled, g, rng);

  TraceSource src(model, replay, 0.01, g, "real");
  expect_same_jobs(drain(src, 4242), eager);
}

TEST(BuildJobs, DrainsTheWorkloadSource) {
  // core::build_jobs is now a drain of core::make_workload_source; the two
  // must agree job for job.
  procsim::core::WorkloadSpec spec;
  spec.kind = procsim::core::WorkloadKind::kStochastic;
  spec.job_count = 120;
  const Geometry g(16, 22);
  const auto eager = procsim::core::build_jobs(spec, g, 8, 5);
  const auto source = procsim::core::make_workload_source(spec, g, 8);
  const auto streamed = drain(*source, 5);
  expect_same_jobs(streamed, eager);
}

// perfbench/ still fills the retired WorkloadSpec template while every
// driver names a registry spec; both build the same stream, job for job.
TEST(BuildJobs, TemplateAndRegistryBuildTheSameStreams) {
  using procsim::core::WorkloadKind;
  using procsim::core::WorkloadSpec;
  using procsim::workload::SideDistribution;
  const auto stochastic = [](SideDistribution dist, double mes) {
    WorkloadSpec t;
    t.kind = WorkloadKind::kStochastic;
    t.stochastic.side_dist = dist;
    t.stochastic.mean_messages = mes;
    t.stochastic.load = 0.02;
    t.job_count = 300;
    return t;
  };
  const auto trace = [](std::size_t prefix, std::string swf_path, double load) {
    WorkloadSpec t;
    t.kind = WorkloadKind::kTrace;
    t.replay.prefix = prefix;
    t.swf_path = std::move(swf_path);
    t.load = load;
    return t;
  };
  const auto registry = [](std::string spec, double load, std::size_t jobs) {
    WorkloadSpec r;
    r.source_spec = std::move(spec);
    r.load = load;
    r.job_count = jobs;
    return r;
  };
  const std::pair<WorkloadSpec, WorkloadSpec> pairs[] = {
      {stochastic(SideDistribution::kUniform, 5), registry("uniform", 0.02, 300)},
      {stochastic(SideDistribution::kExponential, 5), registry("exponential", 0.02, 300)},
      {stochastic(SideDistribution::kUniform, 10), registry("uniform;mes=10", 0.02, 300)},
      {trace(1800, "", 0.005), registry("real", 0.005, 1800)},
      {trace(0, fixture_path(), 0.01), registry("swf:" + fixture_path(), 0.01, 0)},
  };
  for (const auto& [tmpl, spec] : pairs) {
    for (const Geometry g : {Geometry(16, 22), Geometry(64, 64)}) {
      for (const std::uint64_t seed : {1u, 42u}) {
        SCOPED_TRACE(spec.source_spec + " on " + std::to_string(g.width()) + "x" +
                     std::to_string(g.length()) + ", seed " + std::to_string(seed));
        const auto expected = procsim::core::build_jobs(tmpl, g, 8, seed);
        EXPECT_FALSE(expected.empty());
        expect_same_jobs(procsim::core::build_jobs(spec, g, 8, seed), expected);
      }
    }
  }
}

TEST(SystemSim, SourceRunMatchesVectorRun) {
  procsim::core::ExperimentConfig cfg;
  cfg.sys.geom = Geometry(16, 22);
  cfg.sys.target_completions = 80;
  cfg.workload.job_count = 80;
  cfg.workload.stochastic.load = 0.02;
  cfg.seed = 21;

  const auto allocator =
      procsim::core::make_allocator(cfg.allocator, cfg.sys.geom, cfg.seed);
  const auto scheduler = procsim::core::make_scheduler(cfg.scheduler);
  auto sys = cfg.sys;
  sys.seed = cfg.seed ^ 0x5EEDF00DULL;

  const auto jobs =
      procsim::core::build_jobs(cfg.workload, cfg.sys.geom, cfg.sys.net.packet_len, cfg.seed);
  procsim::core::SystemSim vec_sim(sys, *allocator, *scheduler);
  const auto vec_metrics = vec_sim.run(jobs);

  const auto source = procsim::core::make_workload_source(
      cfg.workload, cfg.sys.geom, cfg.sys.net.packet_len);
  source->reset(cfg.seed);
  const auto allocator2 =
      procsim::core::make_allocator(cfg.allocator, cfg.sys.geom, cfg.seed);
  const auto scheduler2 = procsim::core::make_scheduler(cfg.scheduler);
  procsim::core::SystemSim src_sim(sys, *allocator2, *scheduler2);
  const auto src_metrics = src_sim.run(*source);

  EXPECT_DOUBLE_EQ(vec_metrics.turnaround.mean(), src_metrics.turnaround.mean());
  EXPECT_DOUBLE_EQ(vec_metrics.service.mean(), src_metrics.service.mean());
  EXPECT_DOUBLE_EQ(vec_metrics.utilization, src_metrics.utilization);
  EXPECT_DOUBLE_EQ(vec_metrics.packet_latency.mean(), src_metrics.packet_latency.mean());
  EXPECT_EQ(vec_metrics.events, src_metrics.events);
}

// --------------------------------------------------------------- SWF / swf:

TEST(SwfSource, FixtureStreamsEndToEnd) {
  const Geometry g(16, 22);
  const auto src = make_source("swf:" + fixture_path() + ";f=1", g);
  const auto jobs = drain(*src, 3);
  // 352-node partition (16x22): the 400-proc record is dropped; 6 survive.
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0);
  EXPECT_DOUBLE_EQ(jobs[5].arrival, 800);
  EXPECT_EQ(jobs[1].processors, 32);   // req-procs (field 8)
  EXPECT_EQ(jobs[2].processors, 25);   // used-procs fallback (field 5)
  EXPECT_DOUBLE_EQ(jobs[3].trace_runtime, 500);  // req-time fallback
  for (const Job& j : jobs) EXPECT_GE(j.total_messages(), 0);
}

TEST(SwfSource, ResetIsReproducibleAndSubstreamsDiffer) {
  const Geometry g(16, 22);
  const auto src = make_source("swf:" + fixture_path(), g);
  const auto a = drain(*src, substream_seed(42, 0));
  const auto b = drain(*src, substream_seed(42, 0));
  expect_same_jobs(a, b);
  const auto c = drain(*src, substream_seed(42, 1));
  ASSERT_EQ(a.size(), c.size());  // trace fixed; only message plans re-drawn
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_differ |= a[i].message_plan != c[i].message_plan;
  EXPECT_TRUE(any_differ);
}

// ---------------------------------------------------------------- swf cache

TEST(SwfCache, SharedLoaderParsesOnceAndSharesTheVector) {
  procsim::workload::clear_swf_cache();
  const auto a = procsim::workload::load_swf_file_shared(fixture_path(), 352);
  const auto s0 = procsim::workload::swf_cache_stats();
  EXPECT_EQ(s0.entries, 1u);
  EXPECT_EQ(s0.hits, 0u);
  const auto b = procsim::workload::load_swf_file_shared(fixture_path(), 352);
  EXPECT_EQ(a.get(), b.get());  // one parse, aliased — not re-read
  const auto s1 = procsim::workload::swf_cache_stats();
  EXPECT_EQ(s1.entries, 1u);
  EXPECT_EQ(s1.hits, 1u);
  // A different partition cap filters records differently: its own entry.
  const auto c = procsim::workload::load_swf_file_shared(fixture_path(), 30);
  EXPECT_NE(a.get(), c.get());
  EXPECT_LT(c->size(), a->size());
  EXPECT_EQ(procsim::workload::swf_cache_stats().entries, 2u);
}

TEST(SwfCache, SharedAndPerReplicationParsesProduceIdenticalJobStreams) {
  const Geometry geom(16, 22);
  const TraceReplayParams replay;
  // The pre-cache behaviour: a private parse per source construction.
  TraceSource fresh(procsim::workload::load_swf_file(fixture_path(), geom.nodes()),
                    replay, 0.01, geom, "swf:fresh");
  // The shared path every replication of a sweep cell now takes.
  TraceSource shared(
      procsim::workload::load_swf_file_shared(fixture_path(), geom.nodes()), replay,
      0.01, geom, "swf:shared");
  for (const std::uint64_t seed : {1ull, 9ull, 42ull})
    expect_same_jobs(drain(fresh, seed), drain(shared, seed));
}

TEST(SwfCache, RegistrySourcesHitTheCacheAcrossConstructions) {
  procsim::workload::clear_swf_cache();
  const Geometry g(16, 22);
  const std::string spec = "swf:" + fixture_path();
  const auto one = make_source(spec, g);
  const auto before = procsim::workload::swf_cache_stats();
  // A second cell/replication constructing the same spec must not re-parse.
  const auto two = make_source(spec, g);
  const auto after = procsim::workload::swf_cache_stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.hits, before.hits + 1);
  expect_same_jobs(drain(*one, 5), drain(*two, 5));
}

// --------------------------------------------------------------- saturation

TEST(SaturationSource, EverythingArrivesAtTimeZero) {
  SaturationParams p;
  p.count = 500;
  SaturationSource src(p, Geometry(16, 22), "saturation");
  const auto jobs = drain(src, 7);
  ASSERT_EQ(jobs.size(), 500u);
  for (const Job& j : jobs) {
    EXPECT_DOUBLE_EQ(j.arrival, 0);
    EXPECT_GE(j.width, 1);
    EXPECT_LE(j.width, 16);
    EXPECT_GE(j.length, 1);
    EXPECT_LE(j.length, 22);
  }
  expect_same_jobs(jobs, drain(src, 7));
}

// ------------------------------------------------------------------- bursty

TEST(BurstySource, HitsTheLongRunLoadButOverdisperses) {
  BurstyParams p;
  p.load = 0.02;
  p.burst_ratio = 8;
  p.phase_jobs = 32;
  p.count = 40000;
  BurstySource src(p, Geometry(16, 22), "bursty");
  const auto jobs = drain(src, 11);
  ASSERT_EQ(jobs.size(), 40000u);
  Welford inter;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
    inter.add(jobs[i].arrival - jobs[i - 1].arrival);
  }
  // Long-run rate pinned to `load` by the harmonic-mean construction.
  EXPECT_NEAR(inter.mean(), 50.0, 4.0);
  // Burstier than Poisson: coefficient of variation well above 1.
  const double cv = inter.stddev() / inter.mean();
  EXPECT_GT(cv, 1.3);
}

TEST(BurstySource, RatioOneDegeneratesToPoissonRate) {
  BurstyParams p;
  p.load = 0.05;
  p.burst_ratio = 1;
  p.count = 20000;
  BurstySource src(p, Geometry(8, 8), "bursty");
  const auto jobs = drain(src, 13);
  Welford inter;
  for (std::size_t i = 1; i < jobs.size(); ++i)
    inter.add(jobs[i].arrival - jobs[i - 1].arrival);
  EXPECT_NEAR(inter.mean(), 20.0, 1.0);
  const double cv = inter.stddev() / inter.mean();
  EXPECT_NEAR(cv, 1.0, 0.1);
}

// ----------------------------------------------------------- vector source

TEST(VectorSource, RewindsWithoutReseeding) {
  Xoshiro256SS rng(3);
  StochasticParams p;
  const auto jobs = generate_stochastic(p, Geometry(8, 8), 20, rng);
  VectorSource src(jobs);
  expect_same_jobs(drain(src, 0), jobs);
  expect_same_jobs(drain(src, 77), jobs);  // seed ignored: jobs are frozen
}

// --------------------------------- replication determinism across threads

TEST(SourceWorkloads, ReplicatedRunsAreThreadCountInvariant) {
  // Replication k seeds its source with substream_seed(seed, k) in every
  // cell, so run_grid's cell farm, the one concurrency path, prints the
  // same bytes for registry sources at 1 and 3 threads.
  const std::vector<std::string> specs{"saturation;n=150", "bursty;jobs=150",
                                       "exponential"};
  const std::vector<std::string> allocs{"GABL", "MBS"};
  procsim::core::GridSpec grid;
  grid.corner = "workload";
  grid.rows = specs;
  grid.cols = allocs;
  grid.cell = [&](std::size_t r, std::size_t c) {
    procsim::core::ExperimentConfig cfg;
    cfg.sys.geom = Geometry(16, 22);
    cfg.sys.target_completions = 150;
    cfg.workload.source_spec = specs[r];
    cfg.workload.job_count = 150;
    cfg.workload.load = 0.02;
    cfg.allocator = procsim::core::AllocatorSpec(allocs[c]);
    return cfg;
  };
  procsim::core::RunOptions opts;
  opts.min_reps = opts.max_reps = 3;
  opts.seed = 31;
  std::ostringstream serial[2];
  std::ostringstream threaded[2];
  opts.threads = 1;
  procsim::core::run_grid(grid, {{"turnaround", &serial[0]}, {"latency", &serial[1]}}, opts,
                          /*with_ci=*/true);
  opts.threads = 3;
  procsim::core::run_grid(grid, {{"turnaround", &threaded[0]}, {"latency", &threaded[1]}},
                          opts, /*with_ci=*/true);
  EXPECT_EQ(threaded[0].str(), serial[0].str()) << "turnaround";
  EXPECT_EQ(threaded[1].str(), serial[1].str()) << "latency";
}

}  // namespace
