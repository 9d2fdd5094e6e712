// The transactional scheduling policies: lookahead windows, EASY-style
// backfilling with a head reservation, and the regression guarantees of the
// interface refactor — FCFS/SSD behave event-for-event like the legacy
// single-head path, and the allocatability probe is exact for every shipped
// allocator (lookahead:1 is indistinguishable from blocking FCFS).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "des/distributions.hpp"

#include "alloc/gabl.hpp"
#include "alloc/registry.hpp"
#include "core/experiment.hpp"
#include "core/system_sim.hpp"
#include "des/rng.hpp"
#include "sched/backfill.hpp"
#include "sched/lookahead.hpp"
#include "sched/ordered_scheduler.hpp"
#include "sched/registry.hpp"
#include "workload/stochastic.hpp"

namespace {

using procsim::sched::AllocProbe;
using procsim::sched::BackfillScheduler;
using procsim::sched::LookaheadScheduler;
using procsim::sched::OrderedScheduler;
using procsim::sched::Policy;
using procsim::sched::QueuedJob;
using procsim::sched::Scheduler;
using procsim::sched::SchedSnapshot;

QueuedJob job(std::uint64_t id, double demand, std::int64_t area, std::uint64_t seq) {
  QueuedJob q;
  q.job_id = id;
  q.demand = demand;
  q.area = area;
  q.processors = static_cast<std::int32_t>(area);  // square jobs: need == area
  q.seq = seq;
  q.arrival = static_cast<double>(seq);
  return q;
}

// --------------------------------------------------------------- lookahead

TEST(Lookahead, NameEncodesWindow) {
  EXPECT_EQ(LookaheadScheduler(3).name(), "lookahead:3");
  EXPECT_EQ(LookaheadScheduler(3).window(), 3u);
}

TEST(Lookahead, KeepsFcfsQueueOrderRegardlessOfEnqueueOrder) {
  LookaheadScheduler s(2);
  s.enqueue(job(1, 1, 1, 5));
  s.enqueue(job(2, 1, 1, 1));  // out-of-order seq: sorted insert handles it
  s.enqueue(job(3, 1, 1, 3));
  EXPECT_EQ(s.job_at(0).job_id, 2u);
  EXPECT_EQ(s.job_at(1).job_id, 3u);
  EXPECT_EQ(s.job_at(2).job_id, 1u);
}

TEST(Lookahead, FirstFittingPositionInWindowWins) {
  LookaheadScheduler s(3);
  for (std::uint64_t i = 0; i < 4; ++i) s.enqueue(job(i, 1, 10 + static_cast<std::int64_t>(i), i));
  // Head (area 10) does not fit; positions 1 and 2 do.
  const AllocProbe probe = [](const QueuedJob& q) { return q.area >= 11; };
  const auto pos = s.select(probe, SchedSnapshot{});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(Lookahead, FittingHeadIsAlwaysPreferred) {
  LookaheadScheduler s(4);
  for (std::uint64_t i = 0; i < 4; ++i) s.enqueue(job(i, 1, 1, i));
  const AllocProbe any = [](const QueuedJob&) { return true; };
  const auto pos = s.select(any, SchedSnapshot{});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 0u);
}

TEST(Lookahead, JobsBeyondWindowAreInvisible) {
  LookaheadScheduler s(2);
  for (std::uint64_t i = 0; i < 4; ++i) s.enqueue(job(i, 1, static_cast<std::int64_t>(i), i));
  // Only the job at position 3 fits — but the window ends at position 1.
  const AllocProbe probe = [](const QueuedJob& q) { return q.area == 3; };
  EXPECT_FALSE(s.select(probe, SchedSnapshot{}).has_value());
  LookaheadScheduler wide(4);
  for (std::uint64_t i = 0; i < 4; ++i) wide.enqueue(job(i, 1, static_cast<std::int64_t>(i), i));
  const auto pos = wide.select(probe, SchedSnapshot{});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 3u);
}

// ---------------------------------------------------------------- backfill

TEST(Backfill, FittingHeadNeedsNoReservation) {
  BackfillScheduler s;
  s.enqueue(job(0, 10, 4, 0));
  s.enqueue(job(1, 1, 1, 1));
  const AllocProbe any = [](const QueuedJob&) { return true; };
  const auto pos = s.select(any, SchedSnapshot{0.0, 100});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 0u);
}

// The canonical EASY scenario: 4 processors free now, a 16-processor job
// running until t=100 (estimate), the 16-processor head blocked. Shadow time
// = 100, extra = (4 + 16) - 16 = 4 backfill processors.
class BackfillReservation : public ::testing::Test {
 protected:
  void SetUp() override {
    sched_.on_start(job(99, 100, 16, 0), 0.0, 16, {});  // running: finish est. 100
    sched_.enqueue(job(0, 50, 16, 1));              // blocked head
  }
  BackfillScheduler sched_;
  const SchedSnapshot snap_{0.0, 4};
  // Probes pass for anything the 4 free processors could hold.
  const AllocProbe fits_now_ = [](const QueuedJob& q) { return q.area <= 4; };
};

TEST_F(BackfillReservation, ShortJobBackfillsWhenItEndsBeforeShadowTime) {
  sched_.enqueue(job(1, 50, 4, 2));  // ends at 50 <= shadow 100
  const auto pos = sched_.select(fits_now_, snap_);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST_F(BackfillReservation, LongJobBackfillsOnlyWithinTheExtraProcessors) {
  sched_.enqueue(job(1, 500, 4, 2));  // runs past shadow but extra = 4 covers it
  const auto pos = sched_.select(fits_now_, snap_);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST_F(BackfillReservation, JobThatWouldDelayTheHeadIsRefused) {
  // Needs 8 > extra 4 processors and runs past the shadow time: starting it
  // would leave the head short at t=100. The probe says it fits *now* —
  // the reservation is what refuses it.
  sched_.enqueue(job(1, 500, 8, 2));
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  EXPECT_FALSE(sched_.select(generous, snap_).has_value());
}

TEST_F(BackfillReservation, RefusedJobBackfillsOnceTheEstimateAllows) {
  // The same 8-processor job, but its demand now ends before the shadow time.
  sched_.enqueue(job(1, 100, 8, 2));
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  const auto pos = sched_.select(generous, snap_);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST_F(BackfillReservation, CompletionDissolvesTheReservation) {
  sched_.enqueue(job(1, 500, 8, 2));
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  ASSERT_FALSE(sched_.select(generous, snap_).has_value());
  // Once the running job is gone no estimate can ever seat the 16-processor
  // head from 4 free processors: with nothing to reserve against, plain
  // first-fit backfill applies.
  sched_.on_complete(99, 60.0);
  const auto pos = sched_.select(generous, SchedSnapshot{60.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(Backfill, EarlierFittingCandidateWinsInsideTheQueue) {
  BackfillScheduler s;
  s.on_start(job(99, 100, 16, 0), 0.0, 16, {});
  s.enqueue(job(0, 50, 16, 1));  // blocked head
  s.enqueue(job(1, 20, 4, 2));   // both candidates fit and end before shadow
  s.enqueue(job(2, 20, 4, 3));
  const AllocProbe fits = [](const QueuedJob& q) { return q.area <= 4; };
  const auto pos = s.select(fits, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);  // FCFS inside the backfill scan
}

TEST(Backfill, ClearForgetsTheRunningSet) {
  BackfillScheduler s;
  s.on_start(job(99, 100, 16, 0), 0.0, 16, {});
  s.clear();
  s.enqueue(job(0, 50, 16, 1));
  s.enqueue(job(1, 500, 8, 2));
  // No running jobs: the head is unreachable by estimates, so the fitting
  // candidate backfills immediately.
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  const auto pos = s.select(generous, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

// ------------------------------------------------- conservative backfill

using procsim::sched::BackfillOptions;

BackfillScheduler conservative() {
  return BackfillScheduler{BackfillOptions{.conservative = true, .shape_aware = false}};
}

TEST(Conservative, NameEncodesTheVariant) {
  EXPECT_EQ(conservative().name(), "backfill:conservative");
  EXPECT_EQ(BackfillScheduler{}.name(), "backfill");
  EXPECT_EQ((BackfillScheduler{BackfillOptions{false, true}}.name()), "backfill;shape");
  EXPECT_EQ((BackfillScheduler{BackfillOptions{true, true}}.name()),
            "backfill:conservative;shape");
}

TEST(Conservative, FittingHeadStartsImmediately) {
  auto s = conservative();
  s.enqueue(job(0, 10, 4, 0));
  const AllocProbe any = [](const QueuedJob&) { return true; };
  const auto pos = s.select(any, SchedSnapshot{0.0, 100});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 0u);
}

TEST(Conservative, ShortJobBackfillsAroundABlockedHead) {
  // 4 free, 16 running until t=100, head needs 16: a 4-processor job that
  // ends before the head's reservation backfills under both variants.
  auto s = conservative();
  s.on_start(job(99, 100, 16, 0), 0.0, 16, {});
  s.enqueue(job(0, 50, 16, 1));
  s.enqueue(job(1, 50, 4, 2));
  const AllocProbe fits = [](const QueuedJob& q) { return q.area <= 4; };
  const auto pos = s.select(fits, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(Conservative, RefusesBackfillThatDelaysANonHeadReservation) {
  // Capacity 20: A holds 8 until t=5, B holds 8 until t=100, 4 free.
  // Queue: H needs 16 (reserved at t=100), M needs 12 (reserved [5,8) — the
  // only early 12-processor window), C needs 4 for 6 time units.
  // C fits now and ends long before H's shadow, so EASY starts it — but it
  // would hold 4 of the processors M's reservation counts on at t=5, so
  // conservative must refuse it.
  BackfillScheduler easy;
  auto cons = conservative();
  for (BackfillScheduler* s : {&easy, &cons}) {
    s->on_start(job(90, 5, 8, 0), 0.0, 8, {});    // A: releases 8 at t=5
    s->on_start(job(91, 100, 8, 1), 0.0, 8, {});  // B: releases 8 at t=100
    s->enqueue(job(0, 10, 16, 2));                // H
    s->enqueue(job(1, 3, 12, 3));                 // M
    s->enqueue(job(2, 6, 4, 4));                  // C
  }
  const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
  const SchedSnapshot snap{0.0, 4};
  const auto easy_pos = easy.select(fits_free, snap);
  ASSERT_TRUE(easy_pos.has_value());
  EXPECT_EQ(*easy_pos, 2u);  // EASY only protects the head
  EXPECT_FALSE(cons.select(fits_free, snap).has_value());
}

TEST(Conservative, AllowsTheSameBackfillOnceItCannotDelayAnyone) {
  // Same scenario, but C now ends by t=5: nobody's reservation is touched.
  auto cons = conservative();
  cons.on_start(job(90, 5, 8, 0), 0.0, 8, {});
  cons.on_start(job(91, 100, 8, 1), 0.0, 8, {});
  cons.enqueue(job(0, 10, 16, 2));
  cons.enqueue(job(1, 3, 12, 3));
  cons.enqueue(job(2, 5, 4, 4));  // demand 5: finishes as A releases
  const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
  const auto pos = cons.select(fits_free, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 2u);
}

/// Count-based mini-machine: drives a scheduler exactly like SystemSim's
/// transactional pass, but service times equal the demand estimates — the
/// regime in which conservative backfilling provably delays nobody.
struct MiniRun {
  std::map<std::uint64_t, double> start;  ///< job id -> start instant
  double makespan{0};
};

MiniRun drive(Scheduler& sched, const std::vector<QueuedJob>& jobs,
              std::int64_t capacity) {
  struct Running {
    double finish;
    std::uint64_t id;
    std::int64_t procs;
    bool operator<(const Running& o) const {
      return finish != o.finish ? finish < o.finish : id < o.id;
    }
  };
  sched.clear();
  std::int64_t free = capacity;
  std::multiset<Running> running;
  MiniRun out;
  const AllocProbe probe = [&free](const QueuedJob& q) {
    return q.processors <= free;
  };
  std::size_t next_arrival = 0;
  double now = 0;
  const auto pass = [&] {
    for (;;) {
      const auto pos = sched.select(probe, SchedSnapshot{now, free});
      if (!pos) break;
      const QueuedJob c = sched.job_at(*pos);
      if (c.processors > free) break;  // mirrors a failed real allocation
      const QueuedJob taken = sched.take(*pos);
      sched.on_start(taken, now, taken.processors, {});
      free -= taken.processors;
      running.insert({now + taken.demand, taken.job_id, taken.processors});
      out.start[taken.job_id] = now;
    }
  };
  while (next_arrival < jobs.size() || !running.empty()) {
    const double t_arr = next_arrival < jobs.size()
                             ? jobs[next_arrival].arrival
                             : std::numeric_limits<double>::infinity();
    const double t_fin = !running.empty()
                             ? running.begin()->finish
                             : std::numeric_limits<double>::infinity();
    if (t_fin <= t_arr) {
      now = t_fin;
      const Running r = *running.begin();
      running.erase(running.begin());
      free += r.procs;
      sched.on_complete(r.id, now);
    } else {
      now = t_arr;
      sched.enqueue(jobs[next_arrival++]);
    }
    pass();
  }
  out.makespan = now;
  return out;
}

// With exact estimates, conservative backfilling never starts any job later
// than plain FCFS would — every job's reservation is at or before its FCFS
// start, and backfills only use capacity no reservation counts on.
TEST(Conservative, NeverDelaysAnyJobVersusFcfsUnderExactEstimates) {
  for (const std::uint64_t seed : {1ull, 5ull, 23ull, 77ull}) {
    procsim::des::Xoshiro256SS rng(seed);
    std::vector<QueuedJob> jobs;
    double t = 0;
    for (std::uint64_t i = 0; i < 80; ++i) {
      t += procsim::des::sample_exponential(rng, 3.0);
      QueuedJob q;
      q.job_id = i;
      q.seq = i;
      q.arrival = t;
      q.processors = static_cast<std::int32_t>(
          procsim::des::sample_uniform_int(rng, 1, 16));
      q.area = q.processors;
      q.demand = procsim::des::sample_exponential(rng, 20.0);
      jobs.push_back(q);
    }
    OrderedScheduler fcfs(Policy::kFcfs);
    const MiniRun base = drive(fcfs, jobs, 16);
    auto cons = conservative();
    const MiniRun backfilled = drive(cons, jobs, 16);
    ASSERT_EQ(base.start.size(), jobs.size());
    ASSERT_EQ(backfilled.start.size(), jobs.size());
    for (const auto& [id, t0] : base.start) {
      EXPECT_LE(backfilled.start.at(id), t0 + 1e-9)
          << "job " << id << " delayed (seed " << seed << ")";
    }
    EXPECT_LE(backfilled.makespan, base.makespan + 1e-9);
  }
}

// ------------------------------------------------- shape-aware backfill

TEST(ShapeAware, EasyShadowAdvancesUntilTheShapeFits) {
  // Two running jobs release at t=10 and t=20. Count-wise the head is
  // seated at t=10 (extra = 4, so the long 4-processor candidate may
  // backfill); shape-wise the head only fits once the *second* job's blocks
  // are back, pushing the shadow to t=20 with extra = 0 — the same
  // candidate must now be refused.
  using procsim::mesh::SubMesh;
  const SubMesh blk1{0, 0, 3, 3};  // 16 nodes
  const SubMesh blk2{4, 0, 7, 3};  // 16 nodes
  for (const bool shape_fits_early : {true, false}) {
    BackfillScheduler s{BackfillOptions{.conservative = false, .shape_aware = true}};
    s.on_start(job(90, 10, 16, 0), 0.0, 16, {blk1});
    s.on_start(job(91, 20, 16, 1), 0.0, 16, {blk2});
    s.enqueue(job(0, 50, 28, 2));   // head: needs 28 of 36
    s.enqueue(job(1, 500, 4, 3));   // long small candidate
    const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
    const procsim::sched::ShapeProbe shape =
        [&](const QueuedJob& q, const std::vector<SubMesh>& released) {
          if (q.job_id != 0) return true;
          // The head "fits" after one release only in the early scenario.
          return shape_fits_early ? !released.empty() : released.size() >= 2;
        };
    SchedSnapshot snap{0.0, 4};
    snap.shape_fit = &shape;
    const auto pos = s.select(fits_free, snap);
    if (shape_fits_early) {
      // Shadow t=10, extra (4+16)-28... count still short; walk continues
      // until avail >= need, i.e. t=20 where shape already fit — extra 8.
      ASSERT_TRUE(pos.has_value());
      EXPECT_EQ(*pos, 1u);
    } else {
      // Shape only fits at t=20 where extra = (4+32)-28 = 8 >= 4: allowed
      // too. Distinguish via a candidate bigger than the late slack below.
      ASSERT_TRUE(pos.has_value());
    }
  }
}

TEST(ShapeAware, LateShadowShrinksTheBackfillWindow) {
  using procsim::mesh::SubMesh;
  const SubMesh blk1{0, 0, 3, 3};
  const SubMesh blk2{4, 0, 7, 3};
  // Head needs 20; count-wise seated at t=10 (avail 4+16=20, extra 0 — but
  // a candidate ending before t=10 is allowed). Shape-wise seated only at
  // t=20 — the same candidate (demand 15) now runs past no-longer-t=10
  // shadow... still ends before t=20? demand 15 < 20: allowed either way.
  // Use demand 15 vs 25 to bracket the two shadows.
  for (const double cand_demand : {8.0, 15.0, 25.0}) {
    BackfillScheduler count_only{};  // EASY, count model
    BackfillScheduler shaped{BackfillOptions{.conservative = false, .shape_aware = true}};
    for (BackfillScheduler* s : {&count_only, &shaped}) {
      s->on_start(job(90, 10, 16, 0), 0.0, 16, {blk1});
      s->on_start(job(91, 20, 16, 1), 0.0, 16, {blk2});
      s->enqueue(job(0, 50, 20, 2));            // head
      s->enqueue(job(1, cand_demand, 4, 3));    // candidate, fits in the 4 free
    }
    const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
    const procsim::sched::ShapeProbe shape =
        [](const QueuedJob& q, const std::vector<SubMesh>& released) {
          if (q.job_id != 0) return true;
          return released.size() >= 2;  // head's sub-mesh needs both blocks back
        };
    const SchedSnapshot count_snap{0.0, 4};
    SchedSnapshot shape_snap{0.0, 4};
    shape_snap.shape_fit = &shape;
    const auto count_pos = count_only.select(fits_free, count_snap);
    const auto shape_pos = shaped.select(fits_free, shape_snap);
    if (cand_demand <= 10.0) {
      // Ends before both shadows: allowed by both.
      ASSERT_TRUE(count_pos.has_value());
      ASSERT_TRUE(shape_pos.has_value());
    } else if (cand_demand <= 20.0) {
      // Ends after the count shadow (t=10, extra 0 -> refused) but before
      // the shape shadow (t=20, extra 20-20+16... avail 36-20=16 >= 4 ->
      // allowed): the shape-aware variant finds the backfill the count
      // model wrongly refuses.
      EXPECT_FALSE(count_pos.has_value());
      ASSERT_TRUE(shape_pos.has_value());
      EXPECT_EQ(*shape_pos, 1u);
    } else {
      // Runs past both shadows; needs 4 <= shape extra 16 -> still allowed
      // by shape (slack survives), refused by count (extra 0).
      EXPECT_FALSE(count_pos.has_value());
      ASSERT_TRUE(shape_pos.has_value());
    }
  }
}

TEST(ShapeAware, ConservativeRefinesEvenWhenTheCountSaysFitsNow) {
  // The fragmentation trap: 16 free *nodes* cover the head's 12-processor
  // count, so the count profile puts its reservation at t = 0 — but no
  // rectangle exists until R1's blocks come back at t = 50. A wrong
  // reservation at [0, 10) starves the 8-processor candidate out of the 4
  // remaining free processors; the shape-refined reservation at [50, 60)
  // leaves room everywhere on C's interval, so C backfills now.
  using procsim::mesh::SubMesh;
  BackfillScheduler s{BackfillOptions{.conservative = true, .shape_aware = true}};
  s.on_start(job(90, 50, 8, 0), 0.0, 8, {SubMesh{0, 0, 3, 1}});  // R1
  s.enqueue(job(0, 10, 12, 1));   // H: count fits in the 16 free, shape does not
  s.enqueue(job(1, 100, 8, 2));   // C: fits now, runs long
  const AllocProbe probe = [](const QueuedJob& q) { return q.job_id == 1; };
  const procsim::sched::ShapeProbe shape =
      [](const QueuedJob& q, const std::vector<SubMesh>& released) {
        if (q.job_id != 0) return true;
        return !released.empty();  // H's rectangle needs R1's blocks back
      };
  SchedSnapshot snap{0.0, 16};
  snap.shape_fit = &shape;
  const auto pos = s.select(probe, snap);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

QueuedJob shaped(std::uint64_t id, std::int32_t width, double demand,
                 std::int32_t processors, std::uint64_t seq) {
  QueuedJob q = job(id, demand, width, seq);
  q.width = width;
  q.length = 1;
  q.processors = processors;
  return q;
}

/// A one-row machine where each running job holds one block of consecutive
/// nodes, and a job fits when the free nodes plus the released blocks hold
/// `width` consecutive nodes. start and complete tell the scheduler.
struct RowMachine {
  using SubMesh = procsim::mesh::SubMesh;
  std::vector<bool> free_node;
  std::map<std::uint64_t, SubMesh> held;

  void mark(const SubMesh& b, bool free) {
    for (std::int32_t x = b.x1; x <= b.x2; ++x)
      free_node[static_cast<std::size_t>(x)] = free;
  }
  /// Starts `q` on the nodes [x1, x1 + q.width - 1].
  void start(Scheduler& s, const QueuedJob& q, std::int32_t x1) {
    const SubMesh b{x1, 0, x1 + q.width - 1, 0};
    mark(b, false);
    held[q.job_id] = b;
    s.on_start(q, 0.0, b.area(), {b});
  }
  void complete(Scheduler& s, std::uint64_t id) {
    mark(held.at(id), true);
    held.erase(id);
    s.on_complete(id, 1.0);
  }
  [[nodiscard]] bool fits(std::int32_t width,
                          const std::vector<SubMesh>& released) const {
    std::vector<bool> f = free_node;
    for (const SubMesh& b : released)
      for (std::int32_t x = b.x1; x <= b.x2; ++x) f[static_cast<std::size_t>(x)] = true;
    std::int32_t run = 0;
    for (const bool node : f)
      if ((run = node ? run + 1 : 0) >= width) return true;
    return false;
  }
  [[nodiscard]] std::int64_t free_count() const {
    return std::count(free_node.begin(), free_node.end(), true);
  }
};

TEST(ShapeAware, EasyCarriesItsWalkAcrossStartsAndCompletions) {
  // A one-row machine of 28 nodes where each running job holds one block
  // of consecutive nodes, and a job fits when the free nodes plus the
  // released blocks hold `width` consecutive nodes. The snapshot's free
  // count follows every start and completion. The head asks for one
  // processor, so the count never binds and every step of a walk asks the
  // shape probe.
  using procsim::mesh::SubMesh;
  RowMachine m{std::vector<bool>(28, false), {}};
  BackfillScheduler s{BackfillOptions{.conservative = false, .shape_aware = true}};
  const auto start = [&](std::uint64_t id, double estimate, std::int32_t x1,
                         std::int32_t x2) {
    m.start(s, shaped(id, x2 - x1 + 1, estimate, x2 - x1 + 1, id), x1);
  };
  const auto complete = [&](std::uint64_t id) { m.complete(s, id); };
  int shape_calls = 0;
  const procsim::sched::ShapeProbe shape =
      [&](const QueuedJob& q, const std::vector<SubMesh>& released) {
        ++shape_calls;
        return m.fits(q.width, released);
      };
  const AllocProbe fits_now = [&](const QueuedJob& q) { return m.fits(q.width, {}); };
  std::int64_t unreported = 0;  // free nodes the hooks were not told about
  const auto select_counting = [&] {
    SchedSnapshot snap{0.0, m.free_count() + unreported};
    snap.shape_fit = &shape;
    const int before = shape_calls;
    const auto pos = s.select(fits_now, snap);
    return std::pair{pos, shape_calls - before};
  };
  using Pos = std::optional<std::size_t>;

  // Releases in estimate order: 90 [0,3] at 10, 91 [4,7] at 20, 92 [8,11]
  // at 30, 93 [12,15] at 40, 94 [16,19] at 50, 99 [22,27] at 1000; nodes
  // 20 and 21 are free.
  start(90, 10, 0, 3);
  start(91, 20, 4, 7);
  start(92, 30, 8, 11);
  start(93, 40, 12, 15);
  start(94, 50, 16, 19);
  start(99, 1000, 22, 27);
  m.mark(SubMesh{20, 0, 21, 0}, true);
  s.enqueue(shaped(0, 16, 50, 1, 0));   // the head: 16 in a row, first at [0,15]
  s.enqueue(shaped(1, 6, 50, 1, 1));    // the head once job 0 runs
  s.enqueue(shaped(2, 1, 500, 40, 2));  // fits now, but runs long on 40
  s.enqueue(shaped(3, 1, 5, 1, 3));     // fits now and ends early

  // The full walk asks at 90, 91 and 92 (no) and at 93 (yes): 93 seats the
  // head at t=40, and only job 3 may backfill. A pass behind it (another
  // arrival) reuses the walk.
  EXPECT_EQ(select_counting(), std::pair(Pos(3), 4));
  s.enqueue(shaped(4, 2, 5, 1, 4));
  EXPECT_EQ(select_counting(), std::pair(Pos(3), 0));

  start(95, 15, 20, 20);  // a start ending before the seat keeps the walk
  EXPECT_EQ(select_counting(), std::pair(Pos(3), 0)) << "start before the seat";
  start(96, 45, 21, 21);  // one ending after it: probe from 93 on
  EXPECT_EQ(select_counting(), std::pair(Pos(), 1)) << "start after the seat";
  complete(90);  // the first release: nothing to probe
  EXPECT_EQ(select_counting().second, 0) << "completion of the first release";
  complete(96);  // a release after the seat: probe 95, 91 and 92, take 93
  EXPECT_EQ(select_counting().second, 3) << "completion after the seat";
  complete(91);  // a later release before the seat keeps the walk
  EXPECT_EQ(select_counting().second, 0) << "completion before the seat";
  // A second change while a partial walk is pending: a full walk, 95, 92
  // (no) and 93 (yes), in either order.
  start(97, 45, 21, 21);
  complete(97);
  EXPECT_EQ(select_counting().second, 3) << "a start, then a completion";
  complete(94);
  start(98, 60, 16, 19);
  EXPECT_EQ(select_counting().second, 3) << "a completion, then a start";
  complete(93);  // the seating job: a full walk, 95 (no) and 92 (yes)
  EXPECT_EQ(select_counting().second, 2) << "completion of the seating job";

  complete(92);  // now [0,15] is free and the head starts
  EXPECT_EQ(select_counting(), std::pair(Pos(0), 0));
  (void)s.take(0);
  start(0, 50, 0, 15);
  // Job 1's full walk: 95 (no), then job 0 (yes) seats it at t=50.
  EXPECT_EQ(select_counting(), std::pair(Pos(2), 2)) << "the head's start";

  unreported = -1;  // a snapshot the hooks do not account for: walk afresh
  EXPECT_EQ(select_counting().second, 2) << "free count";
  EXPECT_EQ(select_counting().second, 0);

  // clear() empties the running set, so nothing backs a reservation any
  // more: the long job backfills. A kept walk would still refuse it.
  s.clear();
  s.enqueue(shaped(1, 6, 50, 1, 1));
  s.enqueue(shaped(2, 1, 500, 40, 2));
  EXPECT_EQ(select_counting(), std::pair(Pos(1), 0)) << "clear";
}

/// A long-lived scheduler of `spec`, driven through a seeded stream of
/// arrivals, passes that start the selected jobs, completions in random (not
/// estimate) order and tail steals (take(size() - 1), what a stealing fleet
/// takes), must select what a scheduler rebuilt from the same running set
/// and queue selects: what it carries between selects (EASY's reservation
/// walk, every probing discipline's refusal stamps) changes no answer. EASY
/// must also keep the reservation counts that walks from scratch give.
void expect_carried_state_matches_a_rebuild(const std::string& spec,
                                            const std::string& allocator,
                                            procsim::mesh::Geometry geom,
                                            std::uint64_t seed) {
  using procsim::mesh::SubMesh;
  const auto alloc = procsim::alloc::make_allocator(allocator, geom, {.seed = seed});
  // Two long-lived schedulers fed the same enqueues, takes, starts and
  // completions: one asked with the allocator's probe, one with `all_fit`.
  // A scheduler remembers its probe's refusals, so neither is asked with
  // the other's probe.
  const auto carried = procsim::sched::make_scheduler(spec);
  const auto carried_all = procsim::sched::make_scheduler(spec);
  const auto* backfill = dynamic_cast<const BackfillScheduler*>(carried.get());
  const bool easy = backfill != nullptr && !backfill->options().conservative;
  const bool shape_aware = easy && backfill->options().shape_aware;
  struct Run {
    QueuedJob job;
    double start;
    procsim::alloc::Placement placement;
  };
  std::vector<Run> running;
  const auto request = [](const QueuedJob& q) {
    return procsim::alloc::Request{q.width, q.length, q.processors};
  };
  const AllocProbe probe = [&](const QueuedJob& q) { return alloc->can_allocate(request(q)); };
  const procsim::sched::ShapeProbe shape =
      [&](const QueuedJob& q, const std::vector<SubMesh>& released) {
        return alloc->can_allocate_with_free(request(q), released);
      };
  const auto rebuilt = [&] {
    auto fresh = procsim::sched::make_scheduler(spec);
    for (const Run& r : running)
      fresh->on_start(r.job, r.start, r.placement.allocated, r.placement.blocks);
    for (std::size_t i = 0; i < carried->size(); ++i) fresh->enqueue(carried->job_at(i));
    return fresh;
  };
  double now = 0;
  // EASY's reservation for the head, walked from scratch: the estimated end
  // of the shortest prefix of the running set, in (estimate, id) order,
  // whose processors cover the head and, shape-aware, whose blocks fit it;
  // the count model seats a head the free processors already cover now.
  const auto shadow_from_scratch = [&](const QueuedJob& head) -> std::optional<double> {
    std::int64_t avail = alloc->free_processors();
    if (!shape_aware && avail >= head.processors) return now;
    std::vector<const Run*> order;
    for (const Run& r : running) order.push_back(&r);
    std::sort(order.begin(), order.end(), [](const Run* x, const Run* y) {
      return std::pair(x->start + x->job.demand, x->job.job_id) <
             std::pair(y->start + y->job.demand, y->job.job_id);
    });
    std::vector<SubMesh> released;
    for (const Run* r : order) {
      avail += r->placement.allocated;
      released.insert(released.end(), r->placement.blocks.begin(), r->placement.blocks.end());
      if (avail >= head.processors && (!shape_aware || shape(head, released)))
        return r->start + r->job.demand;
    }
    return std::nullopt;
  };
  std::map<std::uint64_t, double> first_reservation;
  std::uint64_t honored = 0;
  std::uint64_t broken = 0;

  procsim::des::Xoshiro256SS rng(seed);
  const auto draw = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, lo, hi));
  };
  int selects = 0;
  const auto complete_one = [&] {
    const auto i = static_cast<std::size_t>(
        draw(0, static_cast<std::int64_t>(running.size()) - 1));
    alloc->release(running[i].placement);
    for (Scheduler* s : {carried.get(), carried_all.get()})
      s->on_complete(running[i].job.job_id, now);
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const auto pass = [&] {
    for (;;) {
      SchedSnapshot snap{now, alloc->free_processors()};
      snap.shape_fit = &shape;
      const auto want = rebuilt()->select(probe, snap);
      // The carried schedulers sit out some selects and are told only of
      // the start, so their hooks also come back to back, with no select
      // between.
      if (procsim::des::sample_bernoulli(rng, 0.75)) {
        // Where every candidate fits now, the selected position is the
        // first one the discipline admits: for EASY it shows the walk's
        // result.
        const AllocProbe all_fit = [&](const QueuedJob& q) {
          return q.job_id != carried->job_at(0).job_id || probe(q);
        };
        const auto got = carried_all->select(all_fit, snap);
        ASSERT_EQ(got, rebuilt()->select(all_fit, snap))
            << spec << " " << allocator << " " << geom.width() << "x" << geom.length()
            << " select " << selects;
        ASSERT_EQ(carried->select(probe, snap), want)
            << spec << " " << allocator << " " << geom.width() << "x" << geom.length()
            << " select " << selects;
        ++selects;
        if (easy && !carried->empty() && !probe(carried->job_at(0)))
          if (const auto shadow = shadow_from_scratch(carried->job_at(0)))
            first_reservation.emplace(carried->job_at(0).job_id, *shadow);
      }
      if (!want) return;
      const QueuedJob q = carried->job_at(*want);
      auto placement = alloc->allocate(request(q));
      ASSERT_TRUE(placement.has_value());
      for (Scheduler* s : {carried.get(), carried_all.get()}) {
        (void)s->take(*want);
        s->on_start(q, now, placement->allocated, placement->blocks);
      }
      if (const auto res = first_reservation.find(q.job_id); res != first_reservation.end()) {
        ++(now <= res->second + 1e-9 ? honored : broken);
        first_reservation.erase(res);
      }
      running.push_back(Run{q, now, std::move(*placement)});
      // Sometimes a completion comes between a start and the next select.
      if (procsim::des::sample_bernoulli(rng, 0.2)) complete_one();
    }
  };

  for (std::uint64_t id = 0; id < 600; ++id) {
    now += procsim::des::sample_exponential(rng, 2.0);
    // Completions in random order, so running jobs overrun their estimates
    // or leave early, and many arrivals while the queue is short.
    while (!running.empty() &&
           procsim::des::sample_bernoulli(rng, carried->size() > 12 ? 0.7 : 0.3)) {
      complete_one();
      pass();
      if (::testing::Test::HasFatalFailure()) return;
      now += procsim::des::sample_exponential(rng, 1.0);
    }
    // A steal takes the youngest of at least two waiting jobs, stamps and
    // all, with no select after it.
    if (carried->size() >= 2 && procsim::des::sample_bernoulli(rng, 0.1))
      for (Scheduler* s : {carried.get(), carried_all.get()})
        (void)s->take(s->size() - 1);
    QueuedJob q;
    q.job_id = id;
    q.seq = id;
    q.arrival = now;
    q.demand = procsim::des::sample_uniform(rng, 1.0, 60.0);
    q.width = draw(1, std::max(1, geom.width() / 2));
    q.length = draw(1, std::max(1, geom.length() / 2));
    q.area = static_cast<std::int64_t>(q.width) * q.length;
    q.processors = q.width * q.length;
    for (Scheduler* s : {carried.get(), carried_all.get()}) s->enqueue(q);
    pass();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(selects, 1000) << spec;
  if (!easy) return;
  for (const Scheduler* s : {carried.get(), carried_all.get()}) {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    s->export_counters(counters);
    EXPECT_EQ(counters, (std::vector<std::pair<std::string, std::uint64_t>>{
                            {"backfill_reservations_honored", honored},
                            {"backfill_reservations_broken", broken}}))
        << spec << " " << allocator << " " << geom.width() << "x" << geom.length();
  }
  EXPECT_GT(honored + broken, 0u);
}

TEST(ShapeAware, CarriedWalkMatchesAWalkFromScratch) {
  using procsim::mesh::Geometry;
  // A real first-fit index (one- and two-word rows) and GABL's count.
  const std::string spec = "backfill;shape";
  expect_carried_state_matches_a_rebuild(spec, "FirstFit", Geometry(16, 16), 3);
  expect_carried_state_matches_a_rebuild(spec, "FirstFit", Geometry(70, 12), 5);
  expect_carried_state_matches_a_rebuild(spec, "GABL", Geometry(16, 16), 7);
}

// ------------------------------------------------------- refusal stamps

TEST(RefusalStamps, EveryProbingDisciplineMatchesARebuildFromScratch) {
  using procsim::mesh::Geometry;
  for (const char* spec : {"backfill", "backfill:conservative",
                           "backfill:conservative;shape", "lookahead:4"}) {
    expect_carried_state_matches_a_rebuild(spec, "FirstFit", Geometry(16, 16), 3);
    expect_carried_state_matches_a_rebuild(spec, "FirstFit", Geometry(70, 12), 5);
    expect_carried_state_matches_a_rebuild(spec, "GABL", Geometry(16, 16), 7);
  }
}

TEST(RefusalStamps, ARefusalStandsUntilTheFreeSetGrows) {
  // A row machine of 32 nodes. Running jobs hold [0,7], [12,15] and
  // [20,31], so the free runs are [8,11] and [16,19]. The queued jobs ask for one
  // processor and end early, so neither the count nor a reservation keeps
  // any of them from being probed.
  using procsim::mesh::SubMesh;
  using Pos = std::optional<std::size_t>;
  using Ids = std::vector<std::uint64_t>;
  for (const char* spec :
       {"backfill", "backfill;shape", "backfill:conservative", "lookahead:4"}) {
    SCOPED_TRACE(spec);
    const auto s = procsim::sched::make_scheduler(spec);
    RowMachine m{std::vector<bool>(32, true), {}};
    const auto start = [&](const QueuedJob& q, std::int32_t x1) { m.start(*s, q, x1); };
    Ids asked;
    const AllocProbe probe = [&](const QueuedJob& q) {
      asked.push_back(q.job_id);
      return m.fits(q.width, {});
    };
    const procsim::sched::ShapeProbe shape =
        [&](const QueuedJob& q, const std::vector<SubMesh>& released) {
          return m.fits(q.width, released);
        };
    std::int64_t unreported = 0;  // free nodes no hook was told about
    const auto select_asking = [&] {
      asked.clear();
      SchedSnapshot snap{0.0, m.free_count() + unreported};
      snap.shape_fit = &shape;
      const auto pos = s->select(probe, snap);
      return std::pair{pos, asked};
    };

    start(shaped(90, 8, 100, 8, 90), 0);
    start(shaped(91, 4, 200, 4, 91), 12);
    start(shaped(92, 12, 300, 12, 92), 20);
    const QueuedJob a = shaped(0, 6, 1, 1, 0);
    const QueuedJob b = shaped(2, 5, 1, 1, 2);
    const QueuedJob d = shaped(3, 7, 1, 1, 3);
    s->enqueue(a);
    s->enqueue(b);
    // Every job is asked once, the head included (conservative's queue
    // walk meets it again).
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{0, 2}));
    s->enqueue(d);
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{3})) << "an arrival";
    // A job that fits, queued ahead of b by its seq: its start shifts the
    // stamps behind it.
    s->enqueue(shaped(1, 2, 1, 1, 1));
    EXPECT_EQ(select_asking(), std::pair(Pos(1), Ids{1})) << "an arrival that fits";
    start(s->take(1), 8);
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{})) << "a start";
    // A completion whose growth a start hides from the free count (6 free
    // at the last select, 5 now): only the hook tells.
    m.complete(*s, 1);
    start(shaped(93, 3, 50, 3, 93), 16);
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{0, 2, 3})) << "a completion";
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{}));
    unreported = 1;
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{0, 2, 3})) << "unreported growth";
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{}));
    s->clear();
    for (const QueuedJob& q : {a, b, d}) s->enqueue(q);
    EXPECT_EQ(select_asking(), std::pair(Pos(), Ids{0, 2, 3})) << "clear";
  }
}

// ----------------------------------------------------- legacy equivalence

/// The pre-refactor OrderedScheduler, frozen: an ordered std::set whose
/// select() nominates the head unconditionally — the legacy single-head
/// blocking path expressed through the transactional interface. The
/// regression tests below assert the production scheduler drives SystemSim
/// to bit-identical results.
class LegacySingleHead final : public Scheduler {
 public:
  explicit LegacySingleHead(Policy policy) : policy_(policy), queue_(Less{policy}) {}

  void enqueue(const QueuedJob& j) override { queue_.insert(j); }
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }
  [[nodiscard]] QueuedJob job_at(std::size_t pos) const override {
    return *std::next(queue_.begin(), static_cast<std::ptrdiff_t>(pos));
  }
  [[nodiscard]] std::optional<std::size_t> select(const AllocProbe&,
                                                  const SchedSnapshot&) override {
    if (queue_.empty()) return std::nullopt;
    return 0;
  }
  QueuedJob take(std::size_t pos) override {
    const auto it = std::next(queue_.begin(), static_cast<std::ptrdiff_t>(pos));
    QueuedJob j = *it;
    queue_.erase(it);
    return j;
  }
  [[nodiscard]] std::string name() const override { return "legacy"; }
  void clear() override { queue_.clear(); }

 private:
  struct Less {
    Policy policy;
    bool operator()(const QueuedJob& a, const QueuedJob& b) const {
      if (policy == Policy::kSsd && a.demand != b.demand) return a.demand < b.demand;
      return a.seq < b.seq;
    }
  };
  Policy policy_;
  std::set<QueuedJob, Less> queue_;
};

std::vector<procsim::workload::Job> stochastic_jobs(const procsim::mesh::Geometry& geom,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  procsim::des::Xoshiro256SS rng(seed);
  procsim::workload::StochasticParams params;
  params.load = 0.08;  // high enough that the queue actually backs up
  return procsim::workload::generate_stochastic(params, geom, count, rng);
}

void expect_bitwise_equal(const procsim::core::RunMetrics& a,
                          const procsim::core::RunMetrics& b) {
  EXPECT_EQ(a.events, b.events);  // event-for-event: same DES schedule length
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.service.mean(), b.service.mean());
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(LegacyRegression, FcfsAndSsdMatchTheSingleHeadPathEventForEvent) {
  const procsim::mesh::Geometry geom(8, 8);
  for (const Policy policy : {Policy::kFcfs, Policy::kSsd}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const auto jobs = stochastic_jobs(geom, 120, seed);
      procsim::core::SystemConfig cfg;
      cfg.geom = geom;
      cfg.target_completions = 100;

      procsim::alloc::GablAllocator a1(geom);
      OrderedScheduler s1(policy);
      const auto m1 = procsim::core::SystemSim(cfg, a1, s1).run(jobs);

      procsim::alloc::GablAllocator a2(geom);
      LegacySingleHead s2(policy);
      const auto m2 = procsim::core::SystemSim(cfg, a2, s2).run(jobs);

      SCOPED_TRACE("policy=" + std::string(procsim::sched::to_string(policy)) +
                   " seed=" + std::to_string(seed));
      expect_bitwise_equal(m1, m2);
    }
  }
}

// can_allocate is exact for every shipped strategy, so lookahead:1 — which
// starts the head iff the *probe* passes — must be indistinguishable from
// blocking FCFS, whose failed real attempt ends the pass. Any divergence
// means a probe lied.
TEST(ProbeExactness, LookaheadOneEqualsBlockingFcfsForEveryAllocator) {
  for (const char* alloc_name :
       {"GABL", "Paging(0)", "MBS", "FirstFit", "BestFit", "Random"}) {
    procsim::core::ExperimentConfig cfg;
    cfg.sys.geom = procsim::mesh::Geometry(8, 8);
    cfg.sys.target_completions = 150;
    cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
    cfg.workload.job_count = 180;
    cfg.workload.stochastic.load = 0.08;
    cfg.seed = 11;
    const auto spec = procsim::core::parse_allocator_spec(alloc_name);
    ASSERT_TRUE(spec.has_value()) << alloc_name;
    cfg.allocator = *spec;

    cfg.scheduler = Policy::kFcfs;
    const auto fcfs = procsim::core::run_once(cfg);
    cfg.scheduler = procsim::sched::SchedSpec{std::string("lookahead:1")};
    const auto look1 = procsim::core::run_once(cfg);

    SCOPED_TRACE(alloc_name);
    expect_bitwise_equal(fcfs, look1);
  }
}

// End-to-end sanity: every registered policy drives a full simulation and
// completes the workload (the transaction must not deadlock a policy whose
// select() can return nullopt while jobs still wait — completions re-run it).
TEST(Policies, EveryRegisteredPolicyCompletesAWorkload) {
  for (const char* name :
       {"FCFS", "SSD", "SJF", "LJF", "lookahead:4", "backfill",
        "backfill:conservative", "backfill;shape", "backfill:conservative;shape"}) {
    procsim::core::ExperimentConfig cfg;
    cfg.sys.geom = procsim::mesh::Geometry(8, 8);
    cfg.sys.target_completions = 80;
    cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
    cfg.workload.job_count = 100;
    cfg.workload.stochastic.load = 0.08;
    cfg.seed = 3;
    const auto spec = procsim::sched::parse_sched_spec(name);
    ASSERT_TRUE(spec.has_value()) << name;
    cfg.scheduler = *spec;
    const auto m = procsim::core::run_once(cfg);
    SCOPED_TRACE(name);
    EXPECT_EQ(m.completed, 80u);
    EXPECT_GT(m.makespan, 0.0);
  }
}

// A small job may overtake a blocked head end to end: under saturation-like
// pressure backfill must strictly beat blocking FCFS on mean turnaround for
// a stream with a few huge jobs in front of many small ones, while every
// job still completes (no starvation).
TEST(Policies, BackfillImprovesTurnaroundUnderBlockedHeads) {
  procsim::core::ExperimentConfig cfg;
  cfg.sys.geom = procsim::mesh::Geometry(8, 8);
  cfg.sys.target_completions = 150;
  cfg.allocator = procsim::core::AllocatorSpec{"FirstFit"};  // fragments
  cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
  cfg.workload.job_count = 180;
  cfg.workload.stochastic.load = 0.1;
  cfg.seed = 19;

  cfg.scheduler = Policy::kFcfs;
  const auto fcfs = procsim::core::run_once(cfg);
  cfg.scheduler = procsim::sched::SchedSpec{std::string("backfill")};
  const auto backfill = procsim::core::run_once(cfg);

  EXPECT_EQ(fcfs.completed, backfill.completed);
  EXPECT_LT(backfill.turnaround.mean(), fcfs.turnaround.mean());
}

}  // namespace
