#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "sim_actions.hpp"
#include "stats/welford.hpp"

namespace {

using procsim::des::EventQueue;
using procsim::des::Simulator;
using procsim::des::Xoshiro256SS;
using procsim_test::Actions;

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(3.0, 0, 3, 0);
  q.push(1.0, 0, 1, 0);
  q.push(2.0, 0, 2, 0);
  std::vector<std::uint32_t> fired;
  while (!q.empty()) fired.push_back(q.pop().a);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) q.push(5.0, 0, i, 0);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(q.pop().a, i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  Actions act(sim);
  double seen = -1;
  act.at(7.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Actions act(sim);
  std::vector<double> times;
  act.at(2.0, [&] {
    times.push_back(sim.now());
    act.in(3.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  Actions act(sim);
  act.at(10.0, [&] {
    EXPECT_THROW(act.at(5.0, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Simulator, StopHaltsExecution) {
  Simulator sim;
  Actions act(sim);
  int fired = 0;
  for (int i = 1; i <= 100; ++i)
    act.at(i, [&] {
      ++fired;
      if (fired == 10) sim.stop();
    });
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.queue().size(), 90u);
}

TEST(Simulator, RunUntilRespectsHorizon) {
  Simulator sim;
  Actions act(sim);
  int fired = 0;
  for (int i = 1; i <= 10; ++i) act.at(i, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, ResetClearsEverything) {
  Simulator sim;
  Actions act(sim);
  act.at(1.0, [] {});
  sim.run();
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.queue().empty());
}

TEST(Simulator, BatchEndRunsOncePerTimestamp) {
  // Three events at t=1 each defer work; the deferred actions run after the
  // whole t=1 batch, before the t=2 event.
  Simulator sim;
  Actions act(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i)
    act.at(1.0, [&sim, &order, i] {
      order.push_back(i);
      sim.at_batch_end([&order, i] { order.push_back(10 + i); });
    });
  act.at(2.0, [&order] { order.push_back(99); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12, 99}));
}

TEST(Simulator, BatchEndActionKeepsBatchOpenWhenSchedulingAtNow) {
  // A deferred action schedules a same-time event, which defers again: the
  // batch reopens and the second deferral still runs before time advances.
  Simulator sim;
  Actions act(sim);
  std::vector<int> order;
  act.at(1.0, [&] {
    order.push_back(0);
    sim.at_batch_end([&] {
      order.push_back(1);
      act.at(1.0, [&] {
        order.push_back(2);
        sim.at_batch_end([&] { order.push_back(3); });
      });
    });
  });
  act.at(2.0, [&order] { order.push_back(99); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 99}));
}

TEST(Simulator, BatchEndDroppedOnStop) {
  Simulator sim;
  Actions act(sim);
  bool deferred_ran = false;
  act.at(1.0, [&] {
    sim.at_batch_end([&] { deferred_ran = true; });
    sim.stop();
  });
  sim.run();
  EXPECT_FALSE(deferred_ran);
  // reset() forgets the dropped action: it must not leak into the next run.
  sim.reset();
  act.at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(deferred_ran);
}

TEST(Simulator, MaxEventsGuard) {
  Simulator sim;
  Actions act(sim);
  // A self-rescheduling event would run forever without the guard.
  std::function<void()> tick = [&] { act.in(1.0, tick); };
  act.at(0.0, tick);
  const auto fired = sim.run(1000);
  EXPECT_EQ(fired, 1000u);
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256SS a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256SS a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, JumpDecorrelatesStreams) {
  Xoshiro256SS a(7);
  Xoshiro256SS child = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == child()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256SS r(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Distributions, ExponentialMeanConverges) {
  Xoshiro256SS r(5);
  procsim::stats::Welford w;
  for (int i = 0; i < 200000; ++i) w.add(procsim::des::sample_exponential(r, 42.0));
  EXPECT_NEAR(w.mean(), 42.0, 0.5);
}

TEST(Distributions, ExponentialRejectsBadMean) {
  Xoshiro256SS r(5);
  EXPECT_THROW((void)procsim::des::sample_exponential(r, 0.0), std::invalid_argument);
  EXPECT_THROW((void)procsim::des::sample_exponential(r, -1.0), std::invalid_argument);
}

TEST(Distributions, UniformIntCoversRangeUniformly) {
  Xoshiro256SS r(11);
  std::array<int, 6> counts{};
  for (int i = 0; i < 60000; ++i)
    ++counts[static_cast<std::size_t>(procsim::des::sample_uniform_int(r, 0, 5))];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Distributions, UniformIntBoundsInclusive) {
  Xoshiro256SS r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = procsim::des::sample_uniform_int(r, 3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Distributions, ExponentialCountAtLeastMin) {
  Xoshiro256SS r(17);
  procsim::stats::Welford w;
  for (int i = 0; i < 100000; ++i) {
    const auto n = procsim::des::sample_exponential_count(r, 5.0);
    EXPECT_GE(n, 1);
    w.add(static_cast<double>(n));
  }
  // Rounding + floor-at-1 nudges the mean slightly above 5.
  EXPECT_NEAR(w.mean(), 5.0, 0.5);
}

TEST(Distributions, NormalMoments) {
  Xoshiro256SS r(23);
  procsim::stats::Welford w;
  for (int i = 0; i < 200000; ++i) w.add(procsim::des::sample_normal(r));
  EXPECT_NEAR(w.mean(), 0.0, 0.02);
  EXPECT_NEAR(w.stddev(), 1.0, 0.02);
}

TEST(Distributions, LognormalMeanMatchesFormula) {
  Xoshiro256SS r(29);
  procsim::stats::Welford w;
  const double mu = 1.0, sigma = 0.5;
  for (int i = 0; i < 200000; ++i) w.add(procsim::des::sample_lognormal(r, mu, sigma));
  EXPECT_NEAR(w.mean(), std::exp(mu + sigma * sigma / 2), 0.05);
}

TEST(Distributions, DiscreteRespectsWeights) {
  Xoshiro256SS r(31);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 100000; ++i)
    ++counts[procsim::des::sample_discrete(r, weights)];
  EXPECT_NEAR(counts[0], 10000, 600);
  EXPECT_NEAR(counts[1], 30000, 900);
  EXPECT_NEAR(counts[2], 60000, 900);
}

TEST(Distributions, DiscreteRejectsDegenerate) {
  Xoshiro256SS r(37);
  const std::vector<double> empty;
  EXPECT_THROW((void)procsim::des::sample_discrete(r, empty), std::invalid_argument);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW((void)procsim::des::sample_discrete(r, zeros), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW((void)procsim::des::sample_discrete(r, negative), std::invalid_argument);
}

}  // namespace
