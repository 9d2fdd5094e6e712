// End-to-end integration tests of the coupled scheduler/allocator/network
// simulation on small meshes with hand-checkable schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "alloc/gabl.hpp"
#include "alloc/paging.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/experiment.hpp"
#include "core/job_record_store.hpp"
#include "core/system_sim.hpp"
#include "sched/ordered_scheduler.hpp"
#include "sched/registry.hpp"
#include "workload/stochastic.hpp"

namespace {

using procsim::alloc::GablAllocator;
using procsim::alloc::PagingAllocator;
using procsim::core::RunMetrics;
using procsim::core::SystemConfig;
using procsim::core::SystemSim;
using procsim::mesh::Geometry;
using procsim::sched::OrderedScheduler;
using procsim::sched::Policy;
using procsim::workload::Job;

Job make_job(std::uint64_t id, double arrival, std::int32_t w, std::int32_t l,
             std::vector<procsim::workload::MessagePlanEntry> plan, double demand = 0) {
  Job j;
  j.id = id;
  j.arrival = arrival;
  j.width = w;
  j.length = l;
  j.processors = w * l;
  j.message_plan = std::move(plan);
  j.demand = demand;
  return j;
}

TEST(SystemSim, SingleProcessorJobNominalService) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 1;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{make_job(0, 10.0, 1, 1, {})};
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 1u);
  // Nominal service: 1 + st + P_len = 1 + 3 + 8 = 12.
  EXPECT_DOUBLE_EQ(m.service.mean(), 12.0);
  EXPECT_DOUBLE_EQ(m.turnaround.mean(), 12.0);
}

TEST(SystemSim, TwoProcessorJobServiceEqualsPacketLatency) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 1;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // 2×1 job, one message between the two (adjacent) processors:
  // latency = 2 channels × (1+3) + ... = (1+1)(1+3)+8 = 16.
  const std::vector<Job> jobs{make_job(0, 0.0, 2, 1, {{0, 1}})};
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_DOUBLE_EQ(m.packet_latency.mean(), 16.0);
  EXPECT_DOUBLE_EQ(m.service.mean(), 16.0);
  EXPECT_DOUBLE_EQ(m.packet_blocking.mean(), 0.0);
  EXPECT_EQ(m.packets, 1u);
}

TEST(SystemSim, ThinkTimeDelaysSecondMessage) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 1;
  cfg.think_time = 100;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // Two messages from the same source: service = 16 + 100 + 16 = 132.
  const std::vector<Job> jobs{make_job(0, 0.0, 2, 1, {{0, 1}, {0, 1}})};
  const RunMetrics m = sim.run(jobs);
  EXPECT_DOUBLE_EQ(m.service.mean(), 132.0);
  // Pacing means the second packet never queues: zero blocking.
  EXPECT_DOUBLE_EQ(m.packet_blocking.mean(), 0.0);
}

TEST(SystemSim, FcfsBlocksBehindBigJob) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 3;
  PagingAllocator alloc(cfg.geom, 0);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // Job 0 takes the whole mesh; jobs 1 (whole mesh) and 2 (tiny) queue.
  // Under FCFS the tiny job cannot overtake the waiting whole-mesh job.
  const std::vector<Job> jobs{
      make_job(0, 0.0, 4, 4, {{0, 15}}, 100),
      make_job(1, 1.0, 4, 4, {{0, 15}}, 100),
      make_job(2, 2.0, 1, 2, {{0, 1}}, 1),
  };
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 3u);
  // Tiny job waits for both big jobs: its turnaround dominates its service.
  EXPECT_GT(m.turnaround.max(), 2 * m.service.max());
}

TEST(SystemSim, SsdLetsShortJobOvertake) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 3;

  const std::vector<Job> jobs{
      make_job(0, 0.0, 4, 4, {{0, 15}}, 100),
      make_job(1, 1.0, 4, 4, {{0, 15}}, 100),
      make_job(2, 2.0, 1, 2, {{0, 1}}, 1),
  };

  PagingAllocator alloc_fcfs(cfg.geom, 0);
  OrderedScheduler fcfs(Policy::kFcfs);
  const RunMetrics m_fcfs = SystemSim(cfg, alloc_fcfs, fcfs).run(jobs);

  PagingAllocator alloc_ssd(cfg.geom, 0);
  OrderedScheduler ssd(Policy::kSsd);
  const RunMetrics m_ssd = SystemSim(cfg, alloc_ssd, ssd).run(jobs);

  // SSD improves mean turnaround by letting the short job jump the queue.
  EXPECT_LT(m_ssd.turnaround.mean(), m_fcfs.turnaround.mean());
}

TEST(SystemSim, UtilizationWithinBounds) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{
      make_job(0, 0.0, 2, 2, {{0, 3}}),
      make_job(1, 0.0, 2, 2, {{0, 3}}),
  };
  const RunMetrics m = sim.run(jobs);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
  EXPECT_GT(m.makespan, 0.0);
}

TEST(SystemSim, TargetCompletionsStopsEarly) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i)
    jobs.push_back(make_job(static_cast<std::uint64_t>(i), i * 5.0, 2, 1, {{0, 1}}));
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 2u);
}

TEST(SystemSim, WarmupExcludedFromStatistics) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 3;
  cfg.warmup_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i)
    jobs.push_back(make_job(static_cast<std::uint64_t>(i), i * 100.0, 2, 1, {{0, 1}}));
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 3u);             // measured completions
  EXPECT_EQ(m.turnaround.count(), 3u);    // warmup jobs not counted
}

TEST(SystemSim, DeterministicAcrossRuns) {
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 50;
  std::vector<Job> jobs;
  procsim::des::Xoshiro256SS rng(5);
  procsim::workload::StochasticParams params;
  params.load = 0.05;
  jobs = procsim::workload::generate_stochastic(params, cfg.geom, 50, rng);

  GablAllocator a1(cfg.geom);
  OrderedScheduler s1(Policy::kSsd);
  const RunMetrics m1 = SystemSim(cfg, a1, s1).run(jobs);

  GablAllocator a2(cfg.geom);
  OrderedScheduler s2(Policy::kSsd);
  const RunMetrics m2 = SystemSim(cfg, a2, s2).run(jobs);

  EXPECT_DOUBLE_EQ(m1.turnaround.mean(), m2.turnaround.mean());
  EXPECT_DOUBLE_EQ(m1.packet_latency.mean(), m2.packet_latency.mean());
  EXPECT_DOUBLE_EQ(m1.makespan, m2.makespan);
  EXPECT_EQ(m1.events, m2.events);
}

TEST(SystemSim, NetEngineSelectionPreservesTrajectory) {
  // SystemConfig::net.engine swaps the wormhole engine per run; the batched
  // fast path and verify's lock-step shadow must leave every model-visible
  // metric identical to the stepped oracle. Only the DES event count (and
  // wall time) may differ — fewer events per packet is the whole point of
  // batching — so RunMetrics::events is deliberately not compared.
  struct Input {
    Geometry geom;
    Policy policy;
    double think_time;
    double load;
    std::size_t jobs;
    std::uint64_t seed;
  };
  // 8x8 SSD with immediate sends; then the paper's 16x22 GABL/FCFS mesh with
  // think time 50, where every delivery re-injects the source's next message
  // from SystemSim::on_delivery after the pause. The 8x8 load-0.2 seed-19
  // input starts packets at non-integer times, where t + k*(1+st) in one
  // rounding differs in the last bit from k additions of 1+st; verify's
  // state check sees any reservation time that takes the former.
  for (const Input& in :
       {Input{Geometry(8, 8), Policy::kSsd, 0, 0.05, 50, 7},
        Input{Geometry(16, 22), Policy::kFcfs, 50, 0.01, 150, 0xF14},
        Input{Geometry(8, 8), Policy::kFcfs, 0, 0.2, 40, 19}}) {
    SCOPED_TRACE(std::to_string(in.geom.width()) + "x" + std::to_string(in.geom.length()));
    SystemConfig cfg;
    cfg.geom = in.geom;
    cfg.think_time = in.think_time;
    cfg.target_completions = in.jobs;
    procsim::des::Xoshiro256SS rng(in.seed);
    procsim::workload::StochasticParams params;
    params.load = in.load;
    const std::vector<Job> jobs =
        procsim::workload::generate_stochastic(params, cfg.geom, in.jobs, rng);

    auto run_with = [&](procsim::network::NetEngine engine) {
      SystemConfig c = cfg;
      c.net.engine = engine;
      GablAllocator alloc(c.geom);
      OrderedScheduler sched(in.policy);
      return SystemSim(c, alloc, sched).run(jobs);
    };
    const RunMetrics stepped = run_with(procsim::network::NetEngine::kStepped);
    const RunMetrics batched = run_with(procsim::network::NetEngine::kBatched);
    const RunMetrics verify = run_with(procsim::network::NetEngine::kVerify);

    for (const RunMetrics* m : {&batched, &verify}) {
      EXPECT_DOUBLE_EQ(m->turnaround.mean(), stepped.turnaround.mean());
      EXPECT_DOUBLE_EQ(m->service.mean(), stepped.service.mean());
      EXPECT_DOUBLE_EQ(m->packet_latency.mean(), stepped.packet_latency.mean());
      EXPECT_DOUBLE_EQ(m->packet_blocking.mean(), stepped.packet_blocking.mean());
      EXPECT_DOUBLE_EQ(m->packet_hops.mean(), stepped.packet_hops.mean());
      EXPECT_DOUBLE_EQ(m->utilization, stepped.utilization);
      EXPECT_DOUBLE_EQ(m->makespan, stepped.makespan);
      EXPECT_EQ(m->packets, stepped.packets);
      EXPECT_EQ(m->completed, stepped.completed);
    }
  }
}

TEST(SystemSim, RunIsRepeatableOnSameInstance) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{
      make_job(0, 0.0, 2, 2, {{0, 3}}),
      make_job(1, 5.0, 2, 2, {{1, 2}}),
  };
  const RunMetrics m1 = sim.run(jobs);
  const RunMetrics m2 = sim.run(jobs);  // internal reset between runs
  EXPECT_DOUBLE_EQ(m1.turnaround.mean(), m2.turnaround.mean());
}

TEST(SystemSim, RerunAfterEarlyStopMatchesFreshInstance) {
  // The network is built once per SystemSim and reset per run: a run that
  // target_completions stops with worms still in flight (on every engine)
  // must leave nothing behind for the next run on the same instance.
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 10;
  procsim::des::Xoshiro256SS rng(19);
  procsim::workload::StochasticParams params;
  params.load = 0.1;
  const auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 40, rng);
  for (const auto engine : {procsim::network::NetEngine::kBatched,
                            procsim::network::NetEngine::kVerify,
                            procsim::network::NetEngine::kAnalytic}) {
    cfg.net.engine = engine;
    GablAllocator a1(cfg.geom);
    OrderedScheduler s1(Policy::kFcfs);
    SystemSim reused(cfg, a1, s1);
    const RunMetrics first = reused.run(jobs);
    EXPECT_GT(first.packets, first.packet_latency.count());  // stopped mid-flight
    const RunMetrics second = reused.run(jobs);
    GablAllocator a2(cfg.geom);
    OrderedScheduler s2(Policy::kFcfs);
    const RunMetrics fresh = SystemSim(cfg, a2, s2).run(jobs);
    for (const RunMetrics* m : {&second, &fresh}) {
      EXPECT_EQ(m->events, first.events);
      EXPECT_EQ(m->makespan, first.makespan);
      EXPECT_EQ(m->turnaround.mean(), first.turnaround.mean());
      EXPECT_EQ(m->packet_latency.mean(), first.packet_latency.mean());
    }
  }
}

TEST(SystemSim, CoalescedPassesMatchLegacyOnContinuousWorkload) {
  // Continuous-time arrivals/completions (almost) never tie, so one pass per
  // timestamp must walk the exact same trajectory as one pass per event.
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 80;
  std::vector<Job> jobs;
  procsim::des::Xoshiro256SS rng(11);
  procsim::workload::StochasticParams params;
  params.load = 0.08;
  jobs = procsim::workload::generate_stochastic(params, cfg.geom, 80, rng);

  cfg.coalesce_passes = false;
  GablAllocator a1(cfg.geom);
  OrderedScheduler s1(Policy::kFcfs);
  const RunMetrics legacy = SystemSim(cfg, a1, s1).run(jobs);

  cfg.coalesce_passes = true;
  GablAllocator a2(cfg.geom);
  OrderedScheduler s2(Policy::kFcfs);
  const RunMetrics coalesced = SystemSim(cfg, a2, s2).run(jobs);

  EXPECT_DOUBLE_EQ(legacy.turnaround.mean(), coalesced.turnaround.mean());
  EXPECT_DOUBLE_EQ(legacy.service.mean(), coalesced.service.mean());
  EXPECT_DOUBLE_EQ(legacy.packet_latency.mean(), coalesced.packet_latency.mean());
  EXPECT_DOUBLE_EQ(legacy.makespan, coalesced.makespan);
  EXPECT_EQ(legacy.packets, coalesced.packets);
}

TEST(SystemSim, CoalescedSaturationBurstStillCompletesEverything) {
  // All arrivals at t=0: the tie-heavy regime where coalescing may place
  // jobs differently. The invariants that must survive: every job completes
  // and every processor comes back.
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 0;
  cfg.coalesce_passes = true;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  procsim::des::Xoshiro256SS rng(13);
  procsim::workload::StochasticParams params;
  params.load = 0.1;
  auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 60, rng);
  for (auto& j : jobs) j.arrival = 0.0;
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 60u);
  EXPECT_EQ(alloc.free_processors(), 64);
}

TEST(SystemSim, RejectsDuplicateJobIds) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // Same id twice, arrivals spread out so both reach the arena.
  const std::vector<Job> jobs{
      make_job(7, 0.0, 4, 4, {{0, 1}, {1, 0}}),
      make_job(7, 1.0, 1, 1, {}),
  };
  EXPECT_THROW((void)sim.run(jobs), std::invalid_argument);
}

TEST(SystemSim, JobRecordStoreCollectsColumnarRecords) {
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 40;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  procsim::core::JobRecordStore store;
  sim.set_metrics_sink(&store);
  procsim::des::Xoshiro256SS rng(17);
  procsim::workload::StochasticParams params;
  params.load = 0.05;
  const auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 40, rng);
  const RunMetrics m = sim.run(jobs);
  ASSERT_EQ(store.size(), m.completed);

  // The reassembled records must tell the same story as the aggregates.
  double turnaround_sum = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const procsim::core::JobRecord r = store.record(i);
    EXPECT_GE(r.start, r.arrival);
    EXPECT_GT(r.finish, r.start);
    EXPECT_GE(r.allocated, r.processors);
    turnaround_sum += r.turnaround();
  }
  EXPECT_NEAR(turnaround_sum / static_cast<double>(store.size()),
              m.turnaround.mean(), 1e-9);

  // CSV emission is deterministic and one row per record.
  std::ostringstream csv;
  store.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            store.size() + 1);  // header + rows
  store.clear();
  EXPECT_TRUE(store.empty());
}

TEST(SystemSim, RejectsUnsortedJobs) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{
      make_job(0, 10.0, 1, 1, {}),
      make_job(1, 5.0, 1, 1, {}),
  };
  EXPECT_THROW((void)sim.run(jobs), std::invalid_argument);
}

TEST(SystemSim, RejectsGeometryMismatch) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  GablAllocator alloc(Geometry(8, 8));
  OrderedScheduler sched(Policy::kFcfs);
  EXPECT_THROW(SystemSim(cfg, alloc, sched), std::invalid_argument);
}

// Golden trajectories: the event count, makespan and two means of a
// fixed-seed run, pinned bit for bit (hex float literals). Any change to
// the event order — the kernel's (time, seq) contract, a handler, the
// network's arbitration — moves at least one of them.
struct Golden {
  std::uint64_t events;
  double makespan;
  double turnaround;
  double latency;
};

void expect_golden(const RunMetrics& m, const Golden& g) {
  EXPECT_EQ(m.events, g.events);
  EXPECT_EQ(m.makespan, g.makespan);
  EXPECT_EQ(m.turnaround.mean(), g.turnaround);
  EXPECT_EQ(m.packet_latency.mean(), g.latency);
}

TEST(SystemSim, GoldenTrajectoryFig02Cell) {
  // fig02's GABL/FCFS cell at its highest load: the Paragon stream on the
  // paper's 16x22 mesh, st=3, P_len=8, think 50, at --fast effort.
  procsim::core::ExperimentConfig cfg;
  cfg.sys.geom = Geometry(16, 22);
  cfg.sys.net = procsim::network::NetworkParams{3, 8, false};
  cfg.sys.think_time = 50;
  cfg.sys.target_completions = 200;
  cfg.workload.kind = procsim::core::WorkloadKind::kTrace;
  cfg.workload.replay.prefix = 200;
  cfg.workload.load = 0.005;
  cfg.allocator = procsim::core::AllocatorSpec("GABL");
  cfg.scheduler = Policy::kFcfs;
  cfg.seed = 42;
  const RunMetrics m = procsim::core::run_once(cfg);
  EXPECT_EQ(m.completed, 200u);
  expect_golden(m, Golden{187110, 0x1.6f00253cd98fp+15, 0x1.c742aba330196p+9,
                          0x1.608e6947ed807p+5});
}

TEST(SystemSim, GoldenTrajectoryStealingFleet) {
  // Four 16x16 meshes on one clock behind the snapshot dispatcher, with
  // work stealing: arrivals, dispatch, migrations and four networks share
  // one event order.
  procsim::core::ExperimentConfig cfg;
  cfg.cluster = procsim::cluster::parse_cluster_spec(
      "4x(16x16);balance=improved;stale=10;migrate=steal;lat=100");
  ASSERT_TRUE(cfg.cluster.has_value());
  cfg.sys.geom = cfg.cluster->meshes.front().geom;
  cfg.sys.think_time = 50;
  cfg.sys.target_completions = 0;
  cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
  cfg.workload.job_count = 300;
  cfg.workload.stochastic.side_dist = procsim::workload::SideDistribution::kUniform;
  cfg.workload.stochastic.load = 0.1;
  cfg.allocator = procsim::core::AllocatorSpec("FirstFit");
  cfg.scheduler = Policy::kFcfs;
  cfg.seed = 7;
  const RunMetrics m = procsim::core::run_once(cfg);
  EXPECT_EQ(m.completed, 300u);
  EXPECT_EQ(m.cluster.migrations, 26u);
  expect_golden(m, Golden{8616, 0x1.a49a4916d465p+11, 0x1.1691e852901d5p+7,
                          0x1.99ffa8ad4824fp+5});
}

// The allocators whose bookkeeping moved onto the occupancy index: Random
// draws from the index's row-major free list, Paging skips pages whose base
// node the index marks busy, MBS keeps its buddy tiling beside the index.
// Recorded before that change; any changed placement moves the trajectory.
TEST(SystemSim, GoldenTrajectoryRandomTraceCell) {
  procsim::core::ExperimentConfig cfg;
  cfg.sys.geom = Geometry(16, 22);
  cfg.sys.net = procsim::network::NetworkParams{3, 8, false};
  cfg.sys.think_time = 50;
  cfg.sys.target_completions = 200;
  cfg.workload.kind = procsim::core::WorkloadKind::kTrace;
  cfg.workload.replay.prefix = 200;
  cfg.workload.load = 0.005;
  cfg.allocator = procsim::core::AllocatorSpec("Random");
  cfg.scheduler = Policy::kFcfs;
  cfg.seed = 42;
  const RunMetrics m = procsim::core::run_once(cfg);
  EXPECT_EQ(m.completed, 200u);
  expect_golden(m, Golden{306584, 0x1.d43a6025dd8ddp+15, 0x1.03da903ecbca7p+11,
                          0x1.90c314225c4a2p+6});
}

procsim::core::ExperimentConfig saturated_stochastic_cell(
    procsim::workload::SideDistribution dist, const char* alloc,
    procsim::sched::SchedSpec policy, std::uint64_t seed) {
  // 200 jobs at load 0.08 on 16x22: the queue stays long, so most
  // allocations find earlier jobs still holding nodes.
  procsim::core::ExperimentConfig cfg;
  cfg.sys.geom = Geometry(16, 22);
  cfg.sys.net = procsim::network::NetworkParams{3, 8, false};
  cfg.sys.target_completions = 0;
  cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
  cfg.workload.job_count = 200;
  cfg.workload.stochastic.side_dist = dist;
  cfg.workload.stochastic.load = 0.08;
  cfg.allocator = procsim::core::AllocatorSpec(alloc);
  cfg.scheduler = std::move(policy);
  cfg.seed = seed;
  return cfg;
}

TEST(SystemSim, GoldenTrajectoryShuffledSnakePaging) {
  procsim::core::ExperimentConfig cfg = saturated_stochastic_cell(
      procsim::workload::SideDistribution::kUniform, "Paging(1)", Policy::kSsd, 11);
  cfg.allocator.paging_indexing = procsim::mesh::PageIndexing::kShuffledSnake;
  const RunMetrics m = procsim::core::run_once(cfg);
  EXPECT_EQ(m.completed, 200u);
  expect_golden(m, Golden{6380, 0x1.a142b3d919bfap+12, 0x1.9907f34965a7bp+10,
                          0x1.e4226291f38ffp+5});
}

TEST(SystemSim, GoldenTrajectoryMbs) {
  const RunMetrics m = procsim::core::run_once(saturated_stochastic_cell(
      procsim::workload::SideDistribution::kExponential, "MBS", Policy::kFcfs, 5));
  EXPECT_EQ(m.completed, 200u);
  expect_golden(m, Golden{5739, 0x1.4ef0c88eeea78p+12, 0x1.1dc00d89f537ep+10,
                          0x1.9d39b1ffec557p+5});
}

// GABL carving at a scale where its caps are wide: on 128x128 a saturated
// queue sends 85 of 440 allocations down the carving loop, 571
// largest_free queries each on an occupancy the previous piece changed.
// Recorded while 401 of them ran a per-width run-mask descent, so it pins
// the frontier-only carving to that independent implementation.
TEST(SystemSim, GoldenTrajectoryGablCarving128) {
  procsim::core::ExperimentConfig cfg = saturated_stochastic_cell(
      procsim::workload::SideDistribution::kUniform, "GABL", Policy::kFcfs, 1);
  cfg.sys.geom = Geometry(128, 128);
  cfg.workload.job_count = 150;
  cfg.workload.stochastic.load = 0.02;
  const RunMetrics m = procsim::core::run_once(cfg);
  EXPECT_EQ(m.completed, 150u);
  expect_golden(m, Golden{27691, 0x1.0c81bfbf37b2ep+14, 0x1.542966337fad8p+12,
                          0x1.2674050b59897p+8});
}

// Schedules driven by allocator probes: backfilling and lookahead ask the
// contiguous allocators can_allocate / can_allocate_with_free for queued
// jobs before committing, so a probe answering differently reorders starts.
// Recorded while can_allocate still ran a first-fit scan per probe, so they
// pin the frontier-answered probes to that independent implementation.
procsim::sched::SchedSpec sched_spec(const char* text) {
  const auto spec = procsim::sched::parse_sched_spec(text);
  if (!spec) throw std::invalid_argument(text);
  return *spec;
}

TEST(SystemSim, GoldenTrajectoryShapeBackfillSwfReplay) {
  procsim::core::ExperimentConfig cfg;
  cfg.sys.geom = Geometry(16, 16);
  cfg.sys.think_time = 50;
  cfg.sys.target_completions = 0;
  cfg.workload.kind = procsim::core::WorkloadKind::kTrace;
  cfg.workload.swf_path = std::string(PROCSIM_TEST_DATA_DIR) + "/mini.swf";
  cfg.workload.load = 0.05;
  cfg.allocator = procsim::core::AllocatorSpec("FirstFit");
  cfg.scheduler = sched_spec("backfill;shape");
  cfg.seed = 3;
  const RunMetrics m = procsim::core::run_once(cfg);
  EXPECT_EQ(m.completed, 6u);
  expect_golden(m, Golden{191, 0x1.ep+7, 0x1.8cp+5, 0x1.bec4ec4ec4ec6p+4});
}

TEST(SystemSim, GoldenTrajectoryConservativeShapeBackfillBestFit) {
  procsim::core::ExperimentConfig cfg = saturated_stochastic_cell(
      procsim::workload::SideDistribution::kUniform, "BestFit",
      sched_spec("backfill:conservative;shape"), 13);
  cfg.sys.geom = Geometry(64, 64);
  cfg.workload.job_count = 150;
  cfg.workload.stochastic.load = 0.02;
  const RunMetrics m = procsim::core::run_once(cfg);
  EXPECT_EQ(m.completed, 150u);
  expect_golden(m, Golden{12167, 0x1.8c30919c34c97p+13, 0x1.69e2cbb0b639fp+10,
                          0x1.6808b3da49f86p+7});
}

TEST(SystemSim, GoldenTrajectoryLookaheadFirstFit) {
  const RunMetrics m = procsim::core::run_once(saturated_stochastic_cell(
      procsim::workload::SideDistribution::kUniform, "FirstFit", sched_spec("lookahead:4"),
      17));
  EXPECT_EQ(m.completed, 200u);
  expect_golden(m, Golden{6075, 0x1.cba610eb9b359p+12, 0x1.033980831ac07p+11,
                          0x1.f62ce98b3a631p+5});
}

TEST(SystemSim, AllProcessorsReleasedAtEnd) {
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 0;  // run all jobs to completion
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  procsim::des::Xoshiro256SS rng(3);
  procsim::workload::StochasticParams params;
  params.load = 0.1;
  const auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 100, rng);
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 100u);
  EXPECT_EQ(alloc.free_processors(), 64);  // everything returned
}

}  // namespace
