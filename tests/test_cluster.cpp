#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/dispatcher.hpp"
#include "core/experiment.hpp"
#include "core/experiment_spec.hpp"
#include "core/figure_runner.hpp"
#include "workload/source_registry.hpp"

namespace {

using namespace procsim;
using cluster::MeshLoadView;
using cluster::parse_cluster_spec;

std::vector<MeshLoadView> depths(std::vector<std::int64_t> ds) {
  std::vector<MeshLoadView> out;
  for (const std::int64_t d : ds) out.push_back(MeshLoadView{d, 64, 0});
  return out;
}

std::vector<std::size_t> all_eligible(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(ClusterSpec, DefaultsAndCanonical) {
  const auto spec = parse_cluster_spec("4x(32x32)");
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->size(), 4u);
  for (const auto& m : spec->meshes) {
    EXPECT_EQ(m.geom.width(), 32);
    EXPECT_EQ(m.geom.length(), 32);
    EXPECT_TRUE(m.alloc.empty());
  }
  EXPECT_EQ(spec->balance, "round_robin");
  EXPECT_FALSE(spec->migrate);
  EXPECT_EQ(spec->total_nodes(), 4 * 32 * 32);
  EXPECT_EQ(spec->canonical, "4x(32x32);balance=round_robin");
}

TEST(ClusterSpec, CanonicalRoundTrips) {
  // parse(canonical) must reproduce the identical spec — the same contract
  // as the alloc/sched registries' label round-trips.
  for (const char* s :
       {"4x(32x32);balance=shortest_queue;stale=10;migrate=steal;lat=50",
        "2x(32x32:GABL)+2x(16x16:FirstFit);balance=improved",
        "1x(16x22)", "4x(16x16);balance=stale_queue;stale=25",
        "3x(8x8);balance=random;migrate=steal;lat=12.5"}) {
    const auto spec = parse_cluster_spec(s);
    ASSERT_TRUE(spec.has_value()) << s;
    const auto again = parse_cluster_spec(spec->canonical);
    ASSERT_TRUE(again.has_value()) << spec->canonical;
    EXPECT_EQ(again->canonical, spec->canonical);
    EXPECT_TRUE(*again == *spec);
  }
  // stale= only means something to the snapshot policies; the canonical
  // spelling drops it elsewhere (and keeps it for stale_queue/improved).
  EXPECT_EQ(parse_cluster_spec("4x(32x32);balance=shortest_queue;stale=10")
                ->canonical,
            "4x(32x32);balance=shortest_queue");
  EXPECT_EQ(parse_cluster_spec("2x(16x16);balance=improved")->canonical,
            "2x(16x16);balance=improved;stale=10");
}

TEST(ClusterSpec, GroupsRunLengthEncodeAndNormalize) {
  const auto spec = parse_cluster_spec("1x(8x8)+1x(8x8)+2x(4x4)");
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->size(), 4u);
  EXPECT_EQ(spec->canonical, "2x(8x8)+2x(4x4);balance=round_robin");
  // Case-insensitive everywhere; allocator names canonicalize.
  const auto het = parse_cluster_spec("4X(16X16:gabl);BALANCE=IMPROVED;STALE=5");
  ASSERT_TRUE(het.has_value());
  EXPECT_EQ(het->meshes[0].alloc, "GABL");
  EXPECT_EQ(het->canonical, "4x(16x16:GABL);balance=improved;stale=5");
}

TEST(ClusterSpec, HeterogeneousAllocNamesPerMesh) {
  const auto spec = parse_cluster_spec("1x(8x8:MBS)+1x(8x8)");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->meshes[0].alloc, "MBS");
  EXPECT_TRUE(spec->meshes[1].alloc.empty());  // experiment default
}

TEST(ClusterSpec, MalformedSpecsFailWithReason) {
  const auto fails = [](const char* s, const char* needle) {
    std::string error;
    EXPECT_FALSE(parse_cluster_spec(s, &error).has_value()) << s;
    EXPECT_NE(error.find(needle), std::string::npos)
        << s << " -> '" << error << "'";
  };
  fails("", "empty");
  fails("0x(8x8)", "count");
  fails("4x(8x8", "group");
  fails("4x8x8)", "group");
  fails("4x(8x8);balance=bogus", "round_robin");       // lists known policies
  fails("4x(8x8:Buddy)", "GABL");                      // lists known allocators
  fails("4x(8x8);stale=0", "stale");
  fails("4x(8x8);lat=-1", "lat");
  fails("4x(8x8);migrate=maybe", "migrate");
  fails("4x(8x8);bogus=1", "unknown");
  fails("4x(9999x8)", "4096");
  // Non-finite numbers fail like malformed ones: a NaN latency would run the
  // fleet clock backwards.
  fails("2x(8x8);migrate=steal;lat=nan", "lat");
  fails("2x(8x8);migrate=steal;lat=inf", "lat");
  fails("2x(8x8);migrate=steal;lat=1e999", "lat");
  fails("2x(8x8);balance=improved;stale=nan", "stale");
  fails("2x(8x8);balance=improved;stale=inf", "stale");
  fails("2x(8x8.5)", "4096");
  fails("1e1x(8x8)", "count");
}

// ---------------------------------------------------------------------------
// Dispatcher policies
// ---------------------------------------------------------------------------

TEST(Dispatcher, RoundRobinCyclesSkippingIneligible) {
  const auto d = cluster::make_dispatcher("round_robin", 10, 1);
  const auto loads = depths({0, 0, 0, 0});
  const auto all = all_eligible(4);
  for (const std::size_t want : {0u, 1u, 2u, 3u, 0u, 1u})
    EXPECT_EQ(d->pick(0.0, loads, all), want);
  // With meshes 1 and 3 eligible the cycle continues, skipping the rest.
  const std::vector<std::size_t> some{1, 3};
  EXPECT_EQ(d->pick(0.0, loads, some), 3u);
  EXPECT_EQ(d->pick(0.0, loads, some), 1u);
  // The cursor keeps cyclic order: the pick after mesh 1 is mesh 2.
  EXPECT_EQ(d->pick(0.0, loads, all), 2u);
}

TEST(Dispatcher, ShortestQueuePicksArgminLowestIndexTie) {
  const auto d = cluster::make_dispatcher("shortest_queue", 10, 1);
  EXPECT_EQ(d->pick(0.0, depths({3, 1, 2}), all_eligible(3)), 1u);
  EXPECT_EQ(d->pick(0.0, depths({2, 1, 1}), all_eligible(3)), 1u);  // tie -> low
  EXPECT_EQ(d->pick(0.0, depths({0, 9, 9}), {1, 2}), 1u);  // ineligible ignored
}

TEST(Dispatcher, RandomIsSeedDeterministicAndStaysEligible) {
  const auto a = cluster::make_dispatcher("random", 10, 42);
  const auto b = cluster::make_dispatcher("random", 10, 42);
  const auto loads = depths({5, 0, 7, 1});
  const std::vector<std::size_t> eligible{0, 2, 3};
  for (int i = 0; i < 50; ++i) {
    const std::size_t pa = a->pick(0.0, loads, eligible);
    EXPECT_EQ(pa, b->pick(0.0, loads, eligible));
    EXPECT_TRUE(pa == 0 || pa == 2 || pa == 3);
  }
}

TEST(Dispatcher, StaleQueueDivergesFromFreshOnlyBetweenRefreshes) {
  const auto stale = cluster::make_dispatcher("stale_queue", 10, 1);
  const auto fresh = cluster::make_dispatcher("shortest_queue", 10, 1);
  const auto all = all_eligible(3);
  // t=0: snapshot taken; both policies agree on the fresh argmin.
  const auto at0 = depths({0, 5, 5});
  EXPECT_EQ(stale->pick(0.0, at0, all), 0u);
  EXPECT_EQ(fresh->pick(0.0, at0, all), 0u);
  // t=5 (< refresh): the world changed, the snapshot didn't — divergence.
  const auto at5 = depths({9, 5, 0});
  EXPECT_EQ(fresh->pick(5.0, at5, all), 2u);
  EXPECT_EQ(stale->pick(5.0, at5, all), 0u);  // still the stale argmin
  // t=10 (>= refresh): snapshot refreshes, agreement returns.
  EXPECT_EQ(stale->pick(10.0, at5, all), 2u);
  EXPECT_EQ(fresh->pick(10.0, at5, all), 2u);
}

TEST(Dispatcher, ImprovedSpreadsWithinOneRefreshWindow) {
  // The hybrid increments its own snapshot after each pick, so a burst of
  // arrivals inside one refresh window round-robins across the fleet instead
  // of herding onto the mesh that looked emptiest at snapshot time.
  const auto d = cluster::make_dispatcher("improved", 100, 1);
  const auto loads = depths({0, 0, 0, 0});
  const auto all = all_eligible(4);
  std::multiset<std::size_t> picks;
  for (int i = 0; i < 4; ++i) picks.insert(d->pick(1.0, loads, all));
  EXPECT_EQ(picks, (std::multiset<std::size_t>{0, 1, 2, 3}));
}

TEST(Dispatcher, UnknownPolicyThrowsListingKnown) {
  try {
    (void)cluster::make_dispatcher("bogus", 10, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shortest_queue"), std::string::npos);
  }
  // The registry listing and the factory accept the same set.
  for (const std::string& name : cluster::known_dispatchers())
    EXPECT_EQ(cluster::make_dispatcher(name, 10, 1)->name(), name);
}

// ---------------------------------------------------------------------------
// Unified experiment-spec entry point
// ---------------------------------------------------------------------------

TEST(ExperimentSpec, AppliesEveryAxis) {
  core::ExperimentSpecStrings axes;
  axes.cluster = "4x(16x16);balance=improved";
  axes.alloc = "mbs";
  axes.sched = "ssd";
  axes.workload = "bursty;b=8";
  const core::ExperimentConfig cfg = core::parse_experiment_spec(axes);
  ASSERT_TRUE(cfg.cluster.has_value());
  EXPECT_EQ(cfg.cluster->size(), 4u);
  EXPECT_EQ(cfg.sys.geom.width(), 16);  // shaped for the first mesh
  EXPECT_EQ(cfg.allocator.label(), "MBS");
  EXPECT_EQ(cfg.scheduler.canonical, "SSD");
  EXPECT_EQ(cfg.workload.source_spec, "bursty;b=8");
  // The config's own stream length stays the override.
  EXPECT_EQ(cfg.workload.job_count, core::WorkloadSpec{}.job_count);
}

TEST(ExperimentSpec, BareFiguresTakeTheRegistryPath) {
  for (const char* family : {"uniform", "Exponential", "real"}) {
    core::ExperimentSpecStrings axes;
    axes.workload = family;
    core::ExperimentConfig cfg;
    cfg.workload.load = 0.02;
    cfg.workload.job_count = 300;
    core::apply_experiment_spec(axes, cfg);
    EXPECT_EQ(cfg.workload.source_spec,
              workload::parse_source_spec(family)->canonical);
    EXPECT_EQ(cfg.workload.load, 0.02) << family;
    EXPECT_EQ(cfg.workload.job_count, 300u) << family;
    EXPECT_EQ(core::build_jobs(cfg.workload, cfg.sys.geom, 8, 1).size(), 300u) << family;
  }
}

// A cell's load and stream cap are registry overrides, which a template
// config does not read on every branch.
TEST(ExperimentSpec, ApplyEffortRejectsATemplateConfig) {
  core::ExperimentConfig cfg;
  core::RunOptions opts;
  opts.fast = true;
  EXPECT_THROW(core::apply_effort(cfg, opts), std::logic_error);
}

TEST(ExperimentSpec, MeshAndClusterConflict) {
  core::ExperimentSpecStrings axes;
  axes.mesh = "16x16";
  axes.cluster = "2x(16x16)";
  EXPECT_THROW((void)core::parse_experiment_spec(axes), std::invalid_argument);
}

TEST(ExperimentSpec, UnknownNamesListKnownKinds) {
  const auto error_contains = [](core::ExperimentSpecStrings axes,
                                 const char* needle) {
    try {
      (void)core::parse_experiment_spec(axes);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  core::ExperimentSpecStrings axes;
  axes.alloc = "NoSuch";
  error_contains(axes, "GABL");
  axes = {};
  axes.sched = "NoSuch";
  error_contains(axes, "FCFS");
  axes = {};
  axes.workload = "NoSuch";
  error_contains(axes, "saturation");
  axes = {};
  axes.cluster = "2x(8x8);balance=NoSuch";
  error_contains(axes, "round_robin");
  axes = {};
  axes.mesh = "16";
  error_contains(axes, "WxL");
}

TEST(ExperimentSpec, ClusterMetricsAreKnown) {
  const auto metrics = core::known_metrics();
  for (const char* m : {"util_spread", "util_min", "util_max", "util_stddev",
                        "migrations", "migration_latency", "stale_errors"})
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), m), metrics.end()) << m;
}

// ---------------------------------------------------------------------------
// ClusterSim end-to-end (through the ExperimentConfig cluster axis)
// ---------------------------------------------------------------------------

struct IdSink final : core::MetricsSink {
  std::vector<std::uint64_t> ids;
  void on_job(const core::JobRecord& rec) override { ids.push_back(rec.id); }
};

core::ExperimentConfig cluster_cfg(const std::string& spec, double load,
                                   std::size_t jobs) {
  core::ExperimentConfig cfg;
  cfg.cluster = parse_cluster_spec(spec);
  EXPECT_TRUE(cfg.cluster.has_value()) << spec;
  cfg.sys.geom = cfg.cluster->meshes.front().geom;
  cfg.sys.think_time = 10;
  cfg.sys.target_completions = 0;  // drain the whole stream
  cfg.workload.kind = core::WorkloadKind::kStochastic;
  cfg.workload.job_count = jobs;
  cfg.workload.stochastic.load = load;
  cfg.seed = 7;
  return cfg;
}

TEST(ClusterSim, DrainCompletesEveryJobExactlyOnce) {
  const auto cfg = cluster_cfg("4x(8x8);balance=shortest_queue", 0.05, 200);
  IdSink sink;
  const core::RunMetrics m = core::run_probed(cfg, nullptr, &sink);
  EXPECT_EQ(m.completed, 200u);
  ASSERT_EQ(sink.ids.size(), 200u);
  EXPECT_EQ(std::set(sink.ids.begin(), sink.ids.end()).size(), 200u);
  EXPECT_EQ(m.cluster.meshes, 4u);
  EXPECT_LE(m.cluster.util_min, m.cluster.util_mean);
  EXPECT_LE(m.cluster.util_mean, m.cluster.util_max);
  EXPECT_GE(m.cluster.util_stddev, 0.0);
  EXPECT_DOUBLE_EQ(m.cluster.spread(), m.cluster.util_max - m.cluster.util_min);
  // shortest_queue always picks the fresh argmin: staleness errors impossible.
  EXPECT_EQ(m.cluster.stale_errors, 0u);
  EXPECT_EQ(m.cluster.migrations, 0u);  // migrate=off
}

TEST(ClusterSim, MigrationPaysLatencyAndNeverDuplicatesOrLoses) {
  const auto cfg =
      cluster_cfg("2x(8x8);balance=round_robin;migrate=steal;lat=50", 0.12, 300);
  IdSink sink;
  const core::RunMetrics m = core::run_probed(cfg, nullptr, &sink);
  // Conservation: every job completes exactly once, with or without travel.
  EXPECT_EQ(m.completed, 300u);
  ASSERT_EQ(sink.ids.size(), 300u);
  EXPECT_EQ(std::set(sink.ids.begin(), sink.ids.end()).size(), 300u);
  // The fixed seed produces steals, and each one pays exactly `lat`.
  EXPECT_GE(m.cluster.migrations, 1u);
  EXPECT_DOUBLE_EQ(m.cluster.migration_latency,
                   50.0 * static_cast<double>(m.cluster.migrations));
}

TEST(ClusterSim, StaleQueueMakesStaleErrorsShortestQueueNone) {
  auto cfg = cluster_cfg("4x(8x8);balance=stale_queue;stale=200", 0.12, 300);
  const core::RunMetrics stale = core::run_probed(cfg, nullptr, nullptr);
  EXPECT_GT(stale.cluster.stale_errors, 0u);
  cfg = cluster_cfg("4x(8x8);balance=shortest_queue", 0.12, 300);
  const core::RunMetrics fresh = core::run_probed(cfg, nullptr, nullptr);
  EXPECT_EQ(fresh.cluster.stale_errors, 0u);
}

TEST(ClusterSim, SchedulerAxisReachesEveryMesh) {
  auto cfg = cluster_cfg("2x(8x8);balance=round_robin", 0.15, 250);
  cfg.scheduler = *sched::parse_sched_spec("FCFS");
  const core::RunMetrics fcfs = core::run_once(cfg);
  cfg.scheduler = *sched::parse_sched_spec("SJF");
  const core::RunMetrics sjf = core::run_once(cfg);
  // Under queueing, per-mesh SJF reorders and the aggregate must move.
  EXPECT_NE(fcfs.turnaround.mean(), sjf.turnaround.mean());
}

TEST(ClusterSim, FixedSeedRunsAreBitIdentical) {
  const auto cfg = cluster_cfg("4x(8x8);balance=improved", 0.08, 150);
  const core::RunMetrics a = core::run_once(cfg);
  const core::RunMetrics b = core::run_once(cfg);
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.cluster.spread(), b.cluster.spread());
  EXPECT_EQ(a.cluster.stale_errors, b.cluster.stale_errors);
  EXPECT_EQ(a.events, b.events);
}

// A fleet of one mesh measures exactly like that mesh under a deterministic
// allocator: same stream, same placements, same measured window. Saturation
// has a warmup, so the fleet must restart its member's window when the
// fleet's warmup ends. Random is left out: a fleet seeds its members'
// allocators from per-mesh substreams.
TEST(ClusterSim, FleetOfOneMeasuresLikeAMesh) {
  const std::set<std::string> cluster_only{"util_spread", "util_min",     "util_max",
                                           "util_stddev", "migrations",   "stale_errors",
                                           "migration_latency"};
  for (const std::string workload : {"uniform", "saturation"}) {
    for (const std::string alloc : {"GABL", "FirstFit"}) {
      const auto observe = [&](core::ExperimentSpecStrings axes) {
        axes.alloc = alloc;
        axes.workload = workload;
        core::ExperimentConfig cfg;
        cfg.sys.think_time = 10;
        cfg.sys.target_completions = 200;
        cfg.workload.load = 0.05;
        core::apply_experiment_spec(axes, cfg);
        if (workload == "saturation") {  // bench::saturated's setup
          cfg.workload.job_count = 3 * cfg.sys.target_completions;
          cfg.sys.warmup_completions = cfg.sys.target_completions / 10;
        }
        cfg.seed = 7;
        return core::to_observations(core::run_once(cfg));
      };
      core::ExperimentSpecStrings mesh_axes;
      mesh_axes.mesh = "16x16";
      core::ExperimentSpecStrings fleet_axes;
      fleet_axes.cluster = "1x(16x16)";
      const auto mesh = observe(mesh_axes);
      const auto fleet = observe(fleet_axes);
      ASSERT_EQ(fleet.size(), mesh.size());
      for (const auto& [key, value] : mesh) {
        if (cluster_only.contains(key)) continue;
        EXPECT_EQ(fleet.at(key), value) << workload << " " << alloc << " " << key;
      }
    }
  }
}

// `workload.load` is the per-mesh offered load, so a fleet of four equal
// meshes is about as busy as one of them.
TEST(ClusterSim, FleetRunsAtItsPerMeshLoad) {
  for (const std::string workload : {"uniform", "exponential"}) {
    const auto utilization = [&](const std::string& cluster) {
      core::ExperimentSpecStrings axes;
      axes.cluster = cluster;
      axes.alloc = "GABL";
      axes.sched = "FCFS";
      axes.workload = workload;
      core::ExperimentConfig cfg;
      cfg.workload.load = 0.01;
      cfg.workload.job_count = 200;
      cfg.sys.target_completions = 200;
      core::apply_experiment_spec(axes, cfg);
      cfg.seed = 7;
      return core::run_once(cfg).utilization;
    };
    const double one = utilization("1x(16x16)");
    const double four = utilization("4x(16x16)");
    EXPECT_GT(one, 0.0) << workload;
    EXPECT_NEAR(four, one, 0.15 * one) << workload;
  }
}

TEST(ClusterSim, ThreadedReplicationsMatchSerialBitForBit) {
  // run_grid farms cells across threads and runs each cell's replications
  // serially, so a fleet grid prints the same bytes, means and 95 %
  // half-widths, at any thread count.
  const std::vector<std::string> balance{"random", "improved"};
  const std::vector<double> loads{0.04, 0.08};
  core::GridSpec grid;
  grid.corner = "load";
  grid.rows = {"0.04", "0.08"};
  grid.cols = balance;
  grid.cell = [&](std::size_t r, std::size_t c) {
    return cluster_cfg("2x(8x8);balance=" + balance[c] + ";migrate=steal;lat=25",
                       loads[r], 120);
  };
  core::RunOptions opts;
  opts.min_reps = opts.max_reps = 3;
  opts.seed = 7;
  const std::vector<std::string> metrics{"turnaround", "latency", "migrations",
                                         "util_spread"};
  std::vector<std::ostringstream> serial(metrics.size());
  std::vector<std::ostringstream> threaded(metrics.size());
  std::vector<core::GridOutput> serial_out;
  std::vector<core::GridOutput> threaded_out;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    serial_out.push_back({metrics[i], &serial[i]});
    threaded_out.push_back({metrics[i], &threaded[i]});
  }
  opts.threads = 1;
  core::run_grid(grid, serial_out, opts, /*with_ci=*/true);
  opts.threads = 3;
  core::run_grid(grid, threaded_out, opts, /*with_ci=*/true);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    EXPECT_EQ(threaded[i].str(), serial[i].str()) << metrics[i];
}

}  // namespace
