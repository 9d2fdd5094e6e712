// Oracle suite for the event kernel. EventQueue must pop in exactly the
// order a std::stable_sort by time of every push gives — (time, insertion
// sequence), the determinism contract every figure CSV rests on — over
// adversarial schedules: clustered timestamps, huge time jumps, pushes
// behind the latest push, interleaved push/pop, clear/reuse between
// replications. Pushes land at or after the last pop, as a simulator's do;
// under that rule every popped event precedes everything still pending, so
// the pops so far are always a prefix of the sorted pushes. The Simulator
// cases pin the same-timestamp lane's interplay with batch-end work,
// horizons and stop().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "sim_actions.hpp"

namespace {

using procsim::des::Event;
using procsim::des::EventQueue;
using procsim::des::SimTime;
using procsim::des::Simulator;
using procsim::des::Xoshiro256SS;
using procsim_test::Actions;

static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) == 32);

/// Drives one EventQueue and records every push (time, id) and every popped
/// id; check() compares the pops with the stable-sorted pushes. Payload `a`
/// carries the id, so equality proves the full order, same-time ties
/// included.
class OracleQueue {
 public:
  /// Pushes at max(t, last pop): the queue's precondition.
  void push(SimTime t) {
    const SimTime when = std::max(t, last_pop_);
    const auto id = static_cast<std::uint32_t>(pushed_.size());
    q_.push(when, 0, id, 0);
    pushed_.push_back({when, id});
  }

  /// Pushes exactly at the last pop: the same-timestamp lane.
  void push_now() { push(last_pop_); }

  void pop() {
    ASSERT_FALSE(q_.empty());
    const SimTime next = q_.next_time();
    const Event ev = q_.pop();
    ASSERT_EQ(ev.time, next);
    ASSERT_GE(ev.time, last_pop_);
    last_pop_ = ev.time;
    popped_.push_back(ev.a);
  }

  void drain() {
    while (!q_.empty()) pop();
  }

  /// The pops so far must be the first pops of the (time, seq) order.
  void check() const {
    std::vector<Pushed> sorted = pushed_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Pushed& x, const Pushed& y) { return x.time < y.time; });
    ASSERT_LE(popped_.size(), sorted.size());
    for (std::size_t i = 0; i < popped_.size(); ++i)
      ASSERT_EQ(popped_[i], sorted[i].id) << "pop " << i << " of " << popped_.size();
  }

  /// Checks, then forgets everything, as between replications.
  void clear() {
    check();
    q_.clear();
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.scheduled_count(), 0u);
    pushed_.clear();
    popped_.clear();
    last_pop_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] SimTime last_pop() const { return last_pop_; }

 private:
  struct Pushed {
    SimTime time;
    std::uint32_t id;
  };
  EventQueue q_;
  std::vector<Pushed> pushed_;
  std::vector<std::uint32_t> popped_;
  SimTime last_pop_{0};
};

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  q.push(3.0, 0, 3, 0);
  q.push(1.0, 0, 1, 0);
  q.push(2.0, 0, 2, 0);
  q.push(1.0, 0, 4, 0);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  std::vector<std::uint32_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 4, 2, 3}));
}

TEST(EventQueue, PayloadRoundTrips) {
  EventQueue q;
  q.push(5.0, 7, 0xDEADBEEF, 0xFFFFFFFFFFFFFFFFULL);
  const Event ev = q.pop();
  EXPECT_EQ(ev.time, 5.0);
  EXPECT_EQ(ev.seq, 0u);
  EXPECT_EQ(ev.kind, 7u);
  EXPECT_EQ(ev.a, 0xDEADBEEFu);
  EXPECT_EQ(ev.b, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(EventQueue, LanePopsAfterHeapEventsDueNow) {
  // Two events due at t=5 sit in the heap; once the first pops, a push at
  // t=5 takes the lane and must wait for the second (smaller seq).
  EventQueue q;
  q.push(5.0, 0, 0, 0);
  q.push(5.0, 0, 1, 0);
  q.push(9.0, 0, 2, 0);
  EXPECT_EQ(q.pop().a, 0u);
  q.push(5.0, 0, 3, 0);
  q.push(5.0, 0, 4, 0);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  std::vector<std::uint32_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 2}));
}

TEST(EventQueue, OracleUniformTimesWithBackwardsPushes) {
  Xoshiro256SS rng(0xCAFE);
  OracleQueue m;
  double t = 0;
  for (int step = 0; step < 20000; ++step) {
    if (m.size() == 0 || rng.next_double() < 0.55) {
      t += procsim::des::sample_exponential(rng, 3.0);
      // One push in five lands behind the latest push (but not before the
      // last pop); one in ten at exactly the last pop.
      const double u = rng.next_double();
      if (u < 0.1)
        m.push_now();
      else if (u < 0.3)
        m.push(m.last_pop() + (t - m.last_pop()) * rng.next_double());
      else
        m.push(t);
    } else {
      m.pop();
    }
  }
  m.drain();
  m.check();
}

TEST(EventQueue, OracleClusteredTimestamps) {
  // Few distinct timestamps, long same-time runs: the tie-breaking stress,
  // and (clamped to the last pop) heavy lane traffic.
  Xoshiro256SS rng(0xBEEF);
  OracleQueue m;
  double base = 0;
  for (int step = 0; step < 20000; ++step) {
    if (m.size() == 0 || rng.next_double() < 0.6) {
      m.push(base + static_cast<double>(procsim::des::sample_uniform_int(rng, 0, 7)) * 100.0);
    } else {
      m.pop();
    }
    if (step % 2000 == 1999) base += 800.0;
  }
  m.drain();
  m.check();
}

TEST(EventQueue, OracleHugeJumps) {
  // Mixed magnitudes up to 1e18 and whole-schedule leaps.
  Xoshiro256SS rng(0xDead);
  OracleQueue m;
  double base = 0;
  for (int step = 0; step < 5000; ++step) {
    if (m.size() == 0 || rng.next_double() < 0.5) {
      const double magnitude = std::pow(10.0, procsim::des::sample_uniform_int(rng, 0, 18));
      m.push(base + rng.next_double() * magnitude);
    } else {
      const std::size_t before = m.size();
      m.pop();
      ASSERT_EQ(m.size(), before - 1);
    }
    if (step % 500 == 499) base += 1e17;
  }
  m.drain();
  m.check();
}

TEST(EventQueue, OracleClearAndReuseBetweenReplications) {
  Xoshiro256SS rng(0x5EED);
  OracleQueue m;
  for (int rep = 0; rep < 5; ++rep) {
    for (int step = 0; step < 3000; ++step) {
      if (m.size() == 0 || rng.next_double() < 0.6) {
        if (rng.next_double() < 0.1)
          m.push_now();
        else
          m.push(rng.next_double() * 1000.0);
      } else {
        m.pop();
      }
    }
    // Alternate full drains and mid-flight clears.
    if (rep % 2 == 0) m.drain();
    m.clear();
  }
}

// --------------------------------------------------- the lane in Simulator

TEST(SimulatorLane, SameTimeScheduleFiresAfterDueEventsBeforeNextTime) {
  Simulator sim;
  Actions act(sim);
  std::vector<int> order;
  act.at(1.0, [&] {
    order.push_back(0);
    act.at(sim.now(), [&] { order.push_back(3); });  // lane
  });
  act.at(1.0, [&] { order.push_back(1); });
  act.at(1.0, [&] {
    order.push_back(2);
    act.in(0.0, [&] { order.push_back(4); });  // lane, behind 3
  });
  act.at(2.0, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SimulatorLane, RunUntilFiresLaneEventsAtHorizon) {
  Simulator sim;
  Actions act(sim);
  std::vector<int> order;
  act.at(5.0, [&] {
    order.push_back(0);
    act.in(0.0, [&] { order.push_back(1); });
  });
  act.at(6.0, [&] { order.push_back(2); });
  sim.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.queue().size(), 1u);
  // The clamped clock still takes same-time work in order.
  act.at(5.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2}));
}

TEST(SimulatorLane, StopMidLaneThenResetLeavesNothingPending) {
  Simulator sim;
  Actions act(sim);
  int fired = 0;
  act.at(1.0, [&] {
    for (int i = 0; i < 5; ++i)
      act.in(0.0, [&] {
        if (++fired == 2) sim.stop();
      });
  });
  act.at(3.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.queue().size(), 4u);  // three lane events + the one at t=3
  sim.reset();
  EXPECT_TRUE(sim.queue().empty());
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorLane, HandlersReceiveTheirPayload) {
  struct Log {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> seen;
    static void fire(void* ctx, std::uint32_t a, std::uint64_t b) {
      static_cast<Log*>(ctx)->seen.emplace_back(a, b);
    }
  };
  Simulator sim;
  Log first, second;
  const auto k1 = sim.add_handler(&Log::fire, &first);
  const auto k2 = sim.add_handler(&Log::fire, &second);
  EXPECT_NE(k1, k2);
  sim.schedule_at(2.0, k2, 7, std::uint64_t{1} << 40);
  sim.schedule_at(1.0, k1, 3, 4);
  sim.run();
  EXPECT_EQ(first.seen, (std::vector<std::pair<std::uint32_t, std::uint64_t>>{{3, 4}}));
  EXPECT_EQ(second.seen,
            (std::vector<std::pair<std::uint32_t, std::uint64_t>>{{7, std::uint64_t{1} << 40}}));
  EXPECT_THROW(sim.schedule_at(3.0, k2 + 1), std::invalid_argument);
}

}  // namespace
