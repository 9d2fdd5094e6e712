// Cross-engine equivalence suite for the wormhole network: the batched
// hop-run fast path must be bit-identical to the stepped per-hop oracle —
// per-packet delivery time, latency, blocked time, hop count AND delivery
// order — across randomized churn, hotspot pileups and adversarial
// head-of-line patterns. Verify mode (batched primary + stepped shadow in
// lock-step) must run the same traffic without tripping its cross-checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "mesh/coord.hpp"
#include "network/routing.hpp"
#include "network/wormhole_network.hpp"

namespace {

using procsim::des::Simulator;
using procsim::des::Xoshiro256SS;
using procsim::mesh::Coord;
using procsim::mesh::Geometry;
using procsim::mesh::NodeId;
using procsim::network::Delivery;
using procsim::network::NetEngine;
using procsim::network::NetworkParams;
using procsim::network::WormholeNetwork;

/// One injection of a churn schedule: packet `tag` enters at absolute time
/// `t`. The churn schedules use integer times on purpose — they collide,
/// exercising the same-timestamp arbitration that decides FIFO order.
struct Injection {
  double t{0};
  NodeId src{0};
  NodeId dst{0};
  std::uint64_t tag{0};
};

/// Everything an engine may not disagree on, in delivery order.
struct Record {
  double time{0};
  double latency{0};
  double blocked{0};
  std::int32_t hops{0};
  std::uint64_t tag{0};
  NodeId src{0};
  NodeId dst{0};

  bool operator==(const Record&) const = default;
};

struct RunResult {
  std::vector<Record> deliveries;
  std::uint64_t truncations{0};
  std::uint64_t runs_batched{0};
  std::uint64_t follows{0};
};

/// Replays one injection schedule on one engine and returns the full
/// delivery trajectory.
RunResult run_schedule(const std::vector<Injection>& schedule, Geometry geom,
                       NetworkParams params) {
  Simulator sim;
  WormholeNetwork net(sim, geom, params);
  struct Ctx {
    Simulator* sim;
    WormholeNetwork* net;
    const std::vector<Injection>* schedule;
    std::vector<Record>* out;
  };
  std::vector<Record> deliveries;
  Ctx ctx{&sim, &net, &schedule, &deliveries};
  net.set_delivery_sink(
      [](void* c, const Delivery& d) {
        auto* x = static_cast<Ctx*>(c);
        x->out->push_back(Record{x->sim->now(), d.latency, d.blocked, d.hops,
                                 d.tag, d.src, d.dst});
      },
      &ctx);
  // One test-registered kind: injection `a` of the schedule.
  const auto inject = sim.add_handler(
      [](void* c, std::uint32_t a, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        const Injection& in = (*x->schedule)[a];
        x->net->inject(in.src, in.dst, in.tag);
      },
      &ctx);
  for (std::size_t i = 0; i < schedule.size(); ++i)
    sim.schedule_at(schedule[i].t, inject, static_cast<std::uint32_t>(i));
  sim.run();
  EXPECT_EQ(net.in_flight(), 0u);
  RunResult r;
  r.deliveries = std::move(deliveries);
  r.truncations = net.stats().truncations;
  r.runs_batched = net.stats().runs_batched;
  r.follows = net.stats().follows;
  return r;
}

/// Stepped vs batched vs verify on the same schedule: all three must
/// produce the identical delivery trajectory, and verify's internal
/// lock-step cross-checks must not throw. Returns the batched run, for its
/// counters.
RunResult expect_engines_agree(const std::vector<Injection>& schedule, Geometry geom,
                               NetworkParams params) {
  params.engine = NetEngine::kStepped;
  const RunResult stepped = run_schedule(schedule, geom, params);
  params.engine = NetEngine::kBatched;
  RunResult batched = run_schedule(schedule, geom, params);
  params.engine = NetEngine::kVerify;
  const RunResult verify = run_schedule(schedule, geom, params);

  EXPECT_EQ(stepped.deliveries.size(), schedule.size());
  EXPECT_EQ(stepped.deliveries.size(), batched.deliveries.size());
  const std::size_t n = std::min(stepped.deliveries.size(), batched.deliveries.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (stepped.deliveries[i] == batched.deliveries[i]) continue;
    ADD_FAILURE() << "delivery " << i << " diverged (tag " << stepped.deliveries[i].tag
                  << " vs " << batched.deliveries[i].tag << ")";
    break;
  }
  EXPECT_EQ(batched.deliveries, verify.deliveries);
  return batched;
}

std::vector<Injection> uniform_churn(Geometry geom, int count, int span,
                                     std::uint64_t seed) {
  Xoshiro256SS rng(seed);
  const auto nodes = static_cast<std::uint64_t>(geom.nodes());
  std::vector<Injection> schedule;
  schedule.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Injection in;
    in.t = static_cast<double>(rng() % static_cast<std::uint64_t>(span));
    in.src = static_cast<NodeId>(rng() % nodes);
    in.dst = static_cast<NodeId>(rng() % nodes);
    if (in.dst == in.src) in.dst = static_cast<NodeId>((in.dst + 1) % geom.nodes());
    in.tag = static_cast<std::uint64_t>(i);
    schedule.push_back(in);
  }
  return schedule;
}

// ------------------------------------------------------- randomized churn

TEST(EngineEquivalence, UniformChurnAcrossParams) {
  const Geometry geom(8, 8);
  for (const bool torus : {false, true}) {
    for (const int plen : {1, 8, 64}) {
      const auto schedule = uniform_churn(geom, 300, 400, 0xC0FFEE + plen);
      expect_engines_agree(schedule, geom,
                           NetworkParams{3, plen, torus, NetEngine::kStepped});
    }
  }
}

TEST(EngineEquivalence, UniformChurnZeroRoutingDelay) {
  const Geometry geom(8, 8);
  const auto schedule = uniform_churn(geom, 300, 300, 0xABBA);
  expect_engines_agree(schedule, geom,
                       NetworkParams{0, 8, false, NetEngine::kStepped});
}

TEST(EngineEquivalence, HotspotChurn) {
  // Everyone hammers one corner: deep FIFOs, long waits, heavy same-time
  // contention on the final links and the ejection channel.
  const Geometry geom(8, 8);
  Xoshiro256SS rng(0x407);
  const auto nodes = static_cast<std::uint64_t>(geom.nodes());
  std::vector<Injection> schedule;
  for (int i = 0; i < 200; ++i) {
    Injection in;
    in.t = static_cast<double>(rng() % 64);
    in.src = static_cast<NodeId>(1 + rng() % (nodes - 1));
    in.dst = 0;
    in.tag = static_cast<std::uint64_t>(i);
    schedule.push_back(in);
  }
  for (const int plen : {1, 8, 64})
    expect_engines_agree(schedule, geom,
                         NetworkParams{3, plen, false, NetEngine::kStepped});
}

TEST(EngineEquivalence, AdversarialHeadOfLineTruncatesReservations) {
  // A long worm launched across a full row reserves its whole free path in
  // one batched run; cross traffic injected just behind the header attacks
  // those not-yet-realized reservations with earlier attempt keys. The
  // batched engine must truncate the run and still match the oracle
  // delivery-for-delivery.
  const Geometry geom(16, 4);
  std::vector<Injection> schedule;
  std::uint64_t tag = 0;
  for (int row = 0; row < 4; ++row) {
    schedule.push_back(
        {0.0, static_cast<NodeId>(row * 16), static_cast<NodeId>(row * 16 + 15),
         tag++});
  }
  // Crossers start one cycle later from mid-row, east along the same links.
  for (int row = 0; row < 4; ++row) {
    for (const int x : {3, 7, 11}) {
      schedule.push_back({1.0, static_cast<NodeId>(row * 16 + x),
                          static_cast<NodeId>(row * 16 + 15), tag++});
    }
  }
  const RunResult batched = expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
  EXPECT_GT(batched.truncations, 0u)
      << "the adversarial pattern no longer exercises reservation truncation";
}

TEST(EngineEquivalence, FractionalInjectionTimes) {
  // Jobs start at continuous arrival times, so packets enter off the cycle
  // grid; reservation times must still match the stepped oracle's bit for
  // bit, under contention and in verify's lock-step state check.
  const Geometry geom(8, 8);
  auto schedule = uniform_churn(geom, 300, 120, 0xF4AC);
  for (Injection& in : schedule) in.t += static_cast<double>(in.tag % 7) / 7.0;
  expect_engines_agree(schedule, geom, NetworkParams{3, 8, false, NetEngine::kStepped});
}

TEST(EngineEquivalence, LongPathChurnFollowsHolders) {
  // Long XY paths on a wide mesh: headers catch up with worms ahead of them
  // on shared rows and columns, so runs follow held channels, and cross
  // traffic rolls those follows back (the Follow cases below pin each kind
  // of roll-back on one schedule; these seeds mix them).
  const Geometry geom(48, 16);
  for (const int plen : {1, 8, 64}) {
    for (int seed = 0; seed < (plen == 8 ? 8 : 1); ++seed) {
      SCOPED_TRACE(testing::Message() << "plen " << plen << " seed " << seed);
      auto schedule = uniform_churn(geom, 600, 200, 0xF011 + 131 * seed + plen);
      for (Injection& in : schedule) in.t += static_cast<double>(in.tag % 3) / 3.0;
      const RunResult r =
          expect_engines_agree(schedule, geom, NetworkParams{3, plen, false});
      EXPECT_GT(r.follows, 0u);
      EXPECT_GT(r.truncations, 0u);
    }
  }
}

// ------------------------------------------------------- follows
//
// On a 16x4 mesh, A crosses row 0 from x=0 to x=15 at t=0: one batched run
// reserves all 17 channels (injection, 15 links, ejection), acquiring path
// index i at 4i and sliding out of index i at 4i+33 for i <= 8 (when it
// acquires index i+8). B enters at the same node at t=1 and waits for the
// injection channel until 33, so it reaches index i at 33+4i: exactly when
// A leaves it.

Injection across_row0(double t, int x0, std::uint64_t tag, const Geometry& g) {
  return {t, g.id(Coord{x0, 0}), g.id(Coord{15, 0}), tag};
}

TEST(Follow, TrailingWormFollowsItsHolder) {
  // B's run at 33 follows A through indices 1-8 (P_len past its first
  // follow) and re-attempts index 9 at 69; that run reserves 10-13, which A
  // has left, and follows A through 14-16, including the ejection channel.
  // Without follows B would stop at every one of those channels: 11 runs.
  const Geometry geom(16, 4);
  const std::vector<Injection> schedule{across_row0(0.0, 0, 0, geom),
                                        across_row0(1.0, 0, 1, geom)};
  const NetworkParams p{3, 8, false};
  const RunResult r = expect_engines_agree(schedule, geom, p);
  EXPECT_EQ(r.runs_batched, 3u);  // A's one run and B's two
  EXPECT_EQ(r.follows, 11u);
  EXPECT_EQ(r.truncations, 0u);
  ASSERT_EQ(r.deliveries.size(), 2u);
  const Record& b = r.deliveries[1];
  EXPECT_EQ(b.tag, 1u);
  EXPECT_EQ(b.blocked, 32.0);
  EXPECT_EQ(b.latency - b.blocked, 72.0);  // (15 + 1) * 4 + 8
}

TEST(Follow, EarlierAttemptOnTheFollowedChannelRollsTheFollowBack) {
  // C enters at x=5 at t=40 and attempts the link 5->6 at 44, while A holds
  // it until 57 and B follows it (B arrives at 57). At A's release the link
  // becomes B's reservation and C's earlier attempt steals it, so B's run is
  // rolled back to that link and re-attempts at its arrival there, where it
  // loses to C.
  const Geometry geom(16, 4);
  const std::vector<Injection> schedule{across_row0(0.0, 0, 0, geom),
                                        across_row0(1.0, 0, 1, geom),
                                        across_row0(40.0, 5, 2, geom)};
  const RunResult r = expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
  EXPECT_GT(r.follows, 0u);
  EXPECT_GT(r.truncations, 0u);  // B's roll-back
  ASSERT_EQ(r.deliveries.size(), 3u);
  EXPECT_EQ(r.deliveries[0].tag, 0u);
  EXPECT_EQ(r.deliveries[1].tag, 2u);  // C overtakes B
  EXPECT_EQ(r.deliveries[1].blocked, 13.0);
  EXPECT_GT(r.deliveries[2].blocked, 32.0);
}

TEST(Follow, TruncatedHolderDropsTheReleaseItsFollowerCountedOn) {
  // D enters at x=11 at t=40 and attempts the link 11->12 at 44, before A's
  // reserved arrival there at 48: A's run is cut at index 12, so A's slide
  // releases of indices 4-11 are unknown again. B follows A through 1-8;
  // its follows of 4-8 lose the releases they counted on and B is rolled
  // back to index 4 (arrival 49), while its follows of 1-3 stand.
  const Geometry geom(16, 4);
  const std::vector<Injection> schedule{across_row0(0.0, 0, 0, geom),
                                        across_row0(1.0, 0, 1, geom),
                                        across_row0(40.0, 11, 2, geom)};
  const RunResult r = expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
  EXPECT_GT(r.follows, 0u);
  EXPECT_GE(r.truncations, 2u);  // A, then B by cascade
  ASSERT_EQ(r.deliveries.size(), 3u);
  EXPECT_EQ(r.deliveries[0].tag, 2u);  // D reaches its ejection first
}

TEST(Follow, HolderCutUpstreamDropsTheHoldsItsFollowerTook) {
  // To follow a channel its holder has only reserved, a run must cover more
  // than P_len hops of its own first, so it has to join the holder's path in
  // a column (on a shared row its P_len window ends first). On a 16x16 mesh
  // A runs down column 12 from t=0, acquiring link (12,y-1)->(12,y), its
  // path index y, at 4y and sliding out of it at 4y+33 for y <= 8. B enters
  // at (1,2) at t=1; its one run crosses row 2 on free links and reaches A's
  // index 3 at 49, so it follows A's reservations of indices 3-8
  // (acquisitions 12-32). C enters at (12,1) at t=2 and attempts A's index
  // 2 at 6, before A's acquisition at 8: A is cut there, which drops its
  // holds on 3-8, and B is rolled back to its arrival at index 3. B follows
  // no channel whose release the cut dropped (indices 0-1), so only the
  // dropped holds reach it.
  const Geometry geom(16, 16);
  const std::vector<Injection> schedule{
      {0.0, geom.id(Coord{12, 0}), geom.id(Coord{12, 15}), 0},
      {1.0, geom.id(Coord{1, 2}), geom.id(Coord{12, 15}), 1},
      {2.0, geom.id(Coord{12, 1}), geom.id(Coord{12, 2}), 2}};
  const RunResult r = expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
  EXPECT_GT(r.follows, 0u);
  EXPECT_EQ(r.truncations, 2u);  // A by C's earlier attempt, B by the holds it followed
  ASSERT_EQ(r.deliveries.size(), 3u);
  EXPECT_EQ(r.deliveries[0].tag, 2u);
  EXPECT_EQ(r.deliveries[1].tag, 0u);
  EXPECT_EQ(r.deliveries[1].blocked, 9.0);  // A waits at index 2 from 8 until C drains
  EXPECT_EQ(r.deliveries[2].tag, 1u);
  EXPECT_EQ(r.deliveries[2].latency - r.deliveries[2].blocked, 108.0);  // (24 + 1) * 4 + 8
}

TEST(Follow, RunFollowsOntoABusyEjectionPort) {
  // A ejects at (15,0) at 64 and drains until 72. E enters at (15,1) at 65
  // and reaches that ejection channel at 73: its one run follows A there
  // and ejects without blocking.
  const Geometry geom(16, 4);
  const std::vector<Injection> schedule{
      across_row0(0.0, 0, 0, geom),
      {65.0, geom.id(Coord{15, 1}), geom.id(Coord{15, 0}), 1}};
  const RunResult r = expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
  EXPECT_EQ(r.runs_batched, 2u);
  EXPECT_EQ(r.follows, 1u);
  ASSERT_EQ(r.deliveries.size(), 2u);
  EXPECT_EQ(r.deliveries[1].tag, 1u);
  EXPECT_EQ(r.deliveries[1].blocked, 0.0);
  EXPECT_EQ(r.deliveries[1].latency, 16.0);  // (1 + 1) * 4 + 8
}

// ------------------------------------------------------- FIFO order pins

TEST(EngineEquivalence, WaiterFifoOrderIsInjectionOrder) {
  // Three same-time injections from one node serialize on the injection
  // channel: grants must follow inject() call order (seq), not any
  // engine-internal order — pinned identically on both engines.
  const Geometry geom(8, 2);
  std::vector<Injection> schedule;
  for (std::uint64_t k = 0; k < 3; ++k)
    schedule.push_back({5.0, 0, static_cast<NodeId>(7), 10 + k});
  for (const auto engine : {NetEngine::kStepped, NetEngine::kBatched}) {
    const RunResult r =
        run_schedule(schedule, geom, NetworkParams{3, 8, false, engine});
    ASSERT_EQ(r.deliveries.size(), 3u);
    EXPECT_EQ(r.deliveries[0].tag, 10u);
    EXPECT_EQ(r.deliveries[1].tag, 11u);
    EXPECT_EQ(r.deliveries[2].tag, 12u);
    // Strictly increasing delivery times: one worm at a time per channel.
    EXPECT_LT(r.deliveries[0].time, r.deliveries[1].time);
    EXPECT_LT(r.deliveries[1].time, r.deliveries[2].time);
    EXPECT_DOUBLE_EQ(r.deliveries[0].blocked, 0.0);
    EXPECT_GT(r.deliveries[1].blocked, 0.0);
  }
  expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
}

TEST(EngineEquivalence, EarlierAttemptBeatsLaterAtSharedLink) {
  // Two headers reach a shared link; the one that attempted earlier wins,
  // the other's blocked time covers exactly the wait — on both engines.
  const Geometry geom(8, 8);
  const Geometry& g = geom;
  std::vector<Injection> schedule;
  schedule.push_back({0.0, g.id(Coord{0, 2}), g.id(Coord{6, 2}), 1});
  schedule.push_back({2.0, g.id(Coord{2, 0}), g.id(Coord{2, 6}), 2});
  expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
}

// ------------------------------------------------------- golden trajectory

/// FNV-1a over the raw bytes of each value: times, latencies and blocked
/// times enter as bit patterns, so a last-bit difference changes the sum.
struct StreamHash {
  std::uint64_t h{0xcbf29ce484222325ULL};
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
};

struct GoldenRun {
  std::uint64_t checksum{0};
  std::size_t deliveries{0};
  std::size_t injected{0};
  std::uint64_t truncations{0};
};

/// Adversarial churn interleaved with test-owned events. Long worms cross
/// whole rows in waves, and crossers enter one cycle behind their headers to
/// steal the batched runs' reservations; uniform churn fills the gaps. A
/// chain of marker events lands on the network's own integer timestamps,
/// each scheduling the next one to three cycles ahead from inside the event
/// order, and every fourth marker schedules a same-time follow-up that
/// injects one more packet. Each marker also schedules an echo P_len cycles
/// ahead, the time at which a pass at the marker's timestamp schedules the
/// deliveries it completes: the echo fires before those deliveries only if
/// the marker ran before that pass. The checksum covers the interleaved
/// stream of deliveries, markers, echoes and follow-ups in the order the
/// kernel fired them.
GoldenRun run_golden(NetEngine engine) {
  const Geometry geom(16, 4);
  std::vector<Injection> schedule;
  std::uint64_t tag = 0;
  for (int wave = 0; wave < 6; ++wave) {
    const double t0 = 40.0 * wave;
    for (int row = 0; row < 4; ++row) {
      const int dir = (wave + row) % 2;  // alternate east and west worms
      const NodeId a = geom.id(Coord{dir == 0 ? 0 : 15, row});
      const NodeId b = geom.id(Coord{dir == 0 ? 15 : 0, (row + wave) % 4});
      schedule.push_back({t0, a, b, tag++});
      for (const int x : {3, 7, 11})
        schedule.push_back({t0 + 1.0, geom.id(Coord{dir == 0 ? x : 15 - x, row}), b,
                            tag++});
    }
  }
  for (Injection in : uniform_churn(geom, 160, 260, 0x601D)) {
    in.tag = tag++;
    schedule.push_back(in);
  }

  Simulator sim;
  WormholeNetwork net(sim, geom, NetworkParams{3, 8, false, engine});
  struct Ctx {
    Simulator* sim{nullptr};
    WormholeNetwork* net{nullptr};
    const std::vector<Injection>* schedule{nullptr};
    Xoshiro256SS rng{0x3A7C};
    StreamHash hash;
    std::size_t deliveries{0};
    std::size_t followups{0};
    std::uint32_t markers{0};
    std::uint64_t next_tag{0};
    std::uint32_t marker_kind{0};
    std::uint32_t followup_kind{0};
    std::uint32_t echo_kind{0};
  };
  Ctx ctx;
  ctx.sim = &sim;
  ctx.net = &net;
  ctx.schedule = &schedule;
  ctx.next_tag = tag;
  net.set_delivery_sink(
      [](void* c, const Delivery& d) {
        auto* x = static_cast<Ctx*>(c);
        ++x->deliveries;
        x->hash.add('D');
        x->hash.add(x->sim->now());
        x->hash.add(d.latency);
        x->hash.add(d.blocked);
        x->hash.add(d.hops);
        x->hash.add(d.tag);
      },
      &ctx);
  const auto inject = sim.add_handler(
      [](void* c, std::uint32_t a, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        const Injection& in = (*x->schedule)[a];
        x->net->inject(in.src, in.dst, in.tag);
      },
      &ctx);
  ctx.followup_kind = sim.add_handler(
      [](void* c, std::uint32_t a, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        const auto nodes =
            static_cast<std::uint32_t>(x->net->channels().geometry().nodes());
        const auto src = static_cast<NodeId>(a % nodes);
        const auto dst = static_cast<NodeId>((a * 7 + 3) % nodes);
        x->hash.add('F');
        x->hash.add(x->sim->now());
        x->hash.add(a);
        ++x->followups;
        x->net->inject(src, dst == src ? (src + 1) % static_cast<NodeId>(nodes) : dst,
                       x->next_tag++);
      },
      &ctx);
  ctx.echo_kind = sim.add_handler(
      [](void* c, std::uint32_t a, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        x->hash.add('E');
        x->hash.add(x->sim->now());
        x->hash.add(a);
      },
      &ctx);
  ctx.marker_kind = sim.add_handler(
      [](void* c, std::uint32_t a, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        const double now = x->sim->now();
        x->hash.add('M');
        x->hash.add(now);
        x->hash.add(a);
        ++x->markers;
        if (a % 4 == 0) x->sim->schedule_at(now, x->followup_kind, a);
        x->sim->schedule_at(now + 8.0, x->echo_kind, a);
        if (now < 320.0)
          x->sim->schedule_at(now + static_cast<double>(1 + x->rng() % 3), x->marker_kind,
                              a + 1);
      },
      &ctx);
  for (std::size_t i = 0; i < schedule.size(); ++i)
    sim.schedule_at(schedule[i].t, inject, static_cast<std::uint32_t>(i));
  sim.schedule_at(1.0, ctx.marker_kind, 0);
  sim.run();
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_GT(ctx.markers, 100u);
  return GoldenRun{ctx.hash.h, ctx.deliveries, schedule.size() + ctx.followups,
                   net.stats().truncations};
}

// Recorded with one kernel event per attempt, ejection and grant. The
// network's event structure may change freely; the trajectory it produces
// beside same-time events it does not own may not.
TEST(EngineGolden, ChurnBesideSameTimeTestEvents) {
  for (const NetEngine engine :
       {NetEngine::kBatched, NetEngine::kStepped, NetEngine::kVerify}) {
    SCOPED_TRACE(procsim::network::net_engine_name(engine));
    const GoldenRun r = run_golden(engine);
    EXPECT_EQ(r.deliveries, r.injected);
    EXPECT_EQ(r.checksum, 0x576d31a6983f2daaULL);
    if (engine == NetEngine::kBatched) {
      EXPECT_GT(r.truncations, 0u);
    }
  }
}

// ------------------------------------------------------- verify lock-step

TEST(VerifyMode, LockStepRunsCleanUnderChurn) {
  const Geometry geom(8, 8);
  const auto schedule = uniform_churn(geom, 400, 300, 0x5EED);
  // run_schedule asserts nothing about verify internals; reaching the end
  // without a logic_error IS the test — every per-packet delivery and every
  // per-timestamp channel/FIFO state was cross-checked on the way.
  const RunResult r =
      run_schedule(schedule, geom, NetworkParams{3, 8, false, NetEngine::kVerify});
  EXPECT_EQ(r.deliveries.size(), schedule.size());
  EXPECT_GT(r.runs_batched, 0u);
}

/// Injects a packet from the west end of `row` to its east end, tagged `row`.
void inject_across_row(WormholeNetwork& net, int row) {
  const Geometry& g = net.channels().geometry();
  net.inject(g.id(Coord{0, row}), g.id(Coord{g.width() - 1, row}),
             static_cast<std::uint64_t>(row));
}

TEST(VerifyMode, StateCompareWaitsForEverySameTimeEvent) {
  // Packet A crosses row 0 from t=0. Batched reserves its whole path at
  // once, so at t=4 only the stepped shadow has filed work: A's second hop.
  // Two test events at t=4 sort after that bucket. The first queues a
  // same-time follow-up that injects B on row 3; the second injects C on
  // row 7. The shadow's pass (A's hop and C) runs before the follow-up and
  // queues the state comparison. B then re-arms the shadow behind the
  // primary's pass, and the comparison must wait for that second shadow pass
  // too: run any earlier, it sees B granted in one engine and waiting in the
  // other.
  const Geometry geom(8, 8);
  Simulator sim;
  WormholeNetwork net(sim, geom, NetworkParams{3, 8, false, NetEngine::kVerify});
  struct Ctx {
    Simulator* sim{nullptr};
    WormholeNetwork* net{nullptr};
    std::uint32_t queue_b_kind{0};
    std::uint32_t inject_b_kind{0};
    std::uint32_t inject_c_kind{0};
    std::size_t deliveries{0};
  };
  Ctx ctx;
  ctx.sim = &sim;
  ctx.net = &net;
  net.set_delivery_sink([](void* c, const Delivery&) { ++static_cast<Ctx*>(c)->deliveries; },
                        &ctx);
  ctx.queue_b_kind = sim.add_handler(
      [](void* c, std::uint32_t, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        x->sim->schedule_at(x->sim->now(), x->inject_b_kind);
      },
      &ctx);
  ctx.inject_b_kind = sim.add_handler(
      [](void* c, std::uint32_t, std::uint64_t) {
        inject_across_row(*static_cast<Ctx*>(c)->net, 3);
      },
      &ctx);
  ctx.inject_c_kind = sim.add_handler(
      [](void* c, std::uint32_t, std::uint64_t) {
        inject_across_row(*static_cast<Ctx*>(c)->net, 7);
      },
      &ctx);
  const auto at_one = sim.add_handler(
      [](void* c, std::uint32_t, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        x->sim->schedule_at(4.0, x->queue_b_kind);
        x->sim->schedule_at(4.0, x->inject_c_kind);
      },
      &ctx);
  inject_across_row(net, 0);
  sim.schedule_at(1.0, at_one);
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(ctx.deliveries, 3u);
}

TEST(VerifyMode, ComparisonsOfNetworksSharingAClockDoNotWaitForEachOther) {
  // A fleet runs one network per mesh on one clock, and a saturated fleet
  // starts them all at t=0. Each network's comparison is then due at the
  // same timestamp as the other's; one that waited for every same-time event
  // would queue behind the other forever.
  const Geometry geom(4, 4);
  Simulator sim;
  const NetworkParams params{3, 8, false, NetEngine::kVerify};
  WormholeNetwork a(sim, geom, params);
  WormholeNetwork b(sim, geom, params);
  for (WormholeNetwork* net : {&a, &b}) inject_across_row(*net, 0);
  constexpr std::uint64_t kGuard = 100'000;
  EXPECT_LT(sim.run(kGuard), kGuard);
  EXPECT_EQ(a.stats().delivered, 1u);
  EXPECT_EQ(b.stats().delivered, 1u);
}

// ------------------------------------------------- integer-cycle helper

TEST(CycleArithmetic, BaseLatencyIsExactIntegerAtExtremes) {
  const Geometry geom(8, 8);
  Simulator sim;
  {
    WormholeNetwork net(sim, geom, NetworkParams{0, 1, false});
    // st=0, P_len=1: (h+1)*1 + 1 — the degenerate minimum everywhere.
    EXPECT_EQ(net.base_latency_cycles(0), 2);
    EXPECT_EQ(net.base_latency_cycles(14), 16);
    EXPECT_DOUBLE_EQ(net.base_latency(14), 16.0);
  }
  {
    // Large st and P_len: the product stays in int64, no double rounding.
    WormholeNetwork net(sim, geom, NetworkParams{1'000'000, 1'000'000, false});
    EXPECT_EQ(net.base_latency_cycles(1000), 1001LL * 1'000'001LL + 1'000'000LL);
  }
}

TEST(CycleArithmetic, DegenerateParamsDeliverExactly) {
  // st=0 and P_len=1 end-to-end: every grant, slide and drain lands on an
  // exact integer cycle; the delivered latency must hit the closed form.
  const Geometry geom(8, 8);
  const Geometry& g = geom;
  std::vector<Injection> schedule;
  schedule.push_back({0.0, g.id(Coord{0, 0}), g.id(Coord{7, 7}), 1});
  for (const auto engine : {NetEngine::kStepped, NetEngine::kBatched}) {
    const RunResult r =
        run_schedule(schedule, geom, NetworkParams{0, 1, false, engine});
    ASSERT_EQ(r.deliveries.size(), 1u);
    EXPECT_EQ(r.deliveries[0].hops, 14);
    EXPECT_DOUBLE_EQ(r.deliveries[0].latency, 16.0);
    EXPECT_DOUBLE_EQ(r.deliveries[0].time, 16.0);
  }
  expect_engines_agree(schedule, geom, NetworkParams{0, 1, false});
}

TEST(CycleArithmetic, NonIntegerInjectionTimeMatchesStepped) {
  // At this start time, t + 15*(1+st) in one rounding differs in the last
  // bit from 15 additions of 1+st, and the difference survives the drain.
  // The stepped engine adds hop by hop; the batched run's reservations must
  // do the same.
  const Geometry geom(8, 8);
  const double t0 = 1.4369731757143045;
  const std::vector<Injection> schedule{
      {t0, geom.id(Coord{0, 0}), geom.id(Coord{7, 7}), 1}};
  double eject = t0;  // 16 channels: acquisitions 1..15 after the first
  for (int k = 0; k < 15; ++k) eject += 4.0;
  ASSERT_NE(eject + 8.0, (t0 + 15 * 4.0) + 8.0);  // the input separates the sums
  NetworkParams p{3, 8, false, NetEngine::kStepped};
  const RunResult stepped = run_schedule(schedule, geom, p);
  p.engine = NetEngine::kBatched;
  const RunResult batched = run_schedule(schedule, geom, p);
  ASSERT_EQ(stepped.deliveries.size(), 1u);
  ASSERT_EQ(batched.deliveries.size(), 1u);
  EXPECT_EQ(stepped.deliveries[0].time, eject + 8.0);
  EXPECT_EQ(batched.deliveries[0].time, stepped.deliveries[0].time);
  EXPECT_EQ(batched.deliveries[0].latency, stepped.deliveries[0].latency);
  expect_engines_agree(schedule, geom, NetworkParams{3, 8, false});
}

// ------------------------------------------------------- engine registry

TEST(EngineRegistry, ParseAndNameRoundTrip) {
  using procsim::network::net_engine_name;
  using procsim::network::parse_net_engine;
  for (const auto engine : {NetEngine::kStepped, NetEngine::kBatched, NetEngine::kVerify}) {
    EXPECT_EQ(parse_net_engine(net_engine_name(engine)), engine);
  }
  EXPECT_THROW((void)parse_net_engine("flooded"), std::invalid_argument);
  EXPECT_THROW((void)parse_net_engine("analytic"), std::invalid_argument);
}

TEST(EngineRegistry, BatchedRunsAreCounted) {
  const Geometry geom(8, 8);
  const auto schedule = uniform_churn(geom, 50, 200, 0x11);
  const RunResult r =
      run_schedule(schedule, geom, NetworkParams{3, 8, false, NetEngine::kBatched});
  EXPECT_GT(r.runs_batched, 0u);
  const RunResult s =
      run_schedule(schedule, geom, NetworkParams{3, 8, false, NetEngine::kStepped});
  EXPECT_EQ(s.runs_batched, 0u);
}

}  // namespace
