#include <gtest/gtest.h>

#include <vector>

#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "mesh/coord.hpp"
#include "network/routing.hpp"
#include "network/wormhole_network.hpp"

namespace {

using procsim::des::Simulator;
using procsim::mesh::Coord;
using procsim::mesh::Geometry;
using procsim::mesh::NodeId;
using procsim::network::ChannelMap;
using procsim::network::Delivery;
using procsim::network::Direction;
using procsim::network::NetEngine;
using procsim::network::NetworkParams;
using procsim::network::WormholeNetwork;

// ------------------------------------------------------------------ Routing

TEST(Routing, NeighboursOnMeshEdges) {
  const ChannelMap map(Geometry(4, 3));
  const Geometry& g = map.geometry();
  EXPECT_EQ(map.neighbour(g.id(Coord{0, 0}), Direction::kWest), -1);
  EXPECT_EQ(map.neighbour(g.id(Coord{0, 0}), Direction::kEast), g.id(Coord{1, 0}));
  EXPECT_EQ(map.neighbour(g.id(Coord{3, 2}), Direction::kNorth), -1);
  EXPECT_EQ(map.neighbour(g.id(Coord{3, 2}), Direction::kSouth), g.id(Coord{3, 1}));
}

TEST(Routing, TorusWrapsAround) {
  const ChannelMap map(Geometry(4, 3), /*torus=*/true);
  const Geometry& g = map.geometry();
  EXPECT_EQ(map.neighbour(g.id(Coord{0, 0}), Direction::kWest), g.id(Coord{3, 0}));
  EXPECT_EQ(map.neighbour(g.id(Coord{3, 2}), Direction::kNorth), g.id(Coord{3, 0}));
}

TEST(Routing, XYRouteGoesXThenY) {
  const ChannelMap map(Geometry(8, 8));
  const Geometry& g = map.geometry();
  const auto path = map.route(g.id(Coord{1, 1}), g.id(Coord{4, 5}));
  // injection + 3 east + 4 north + ejection
  ASSERT_EQ(path.size(), 9u);
  EXPECT_EQ(path.front(), map.injection(g.id(Coord{1, 1})));
  EXPECT_EQ(path[1], map.link(g.id(Coord{1, 1}), Direction::kEast));
  EXPECT_EQ(path[4], map.link(g.id(Coord{4, 1}), Direction::kNorth));
  EXPECT_EQ(path.back(), map.ejection(g.id(Coord{4, 5})));
}

TEST(Routing, HopCountIsManhattanOnMesh) {
  const ChannelMap map(Geometry(16, 22));
  const Geometry& g = map.geometry();
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{15, 21})), 36);
  EXPECT_EQ(map.hop_count(g.id(Coord{3, 3}), g.id(Coord{3, 3})), 0);
  EXPECT_EQ(map.hop_count(g.id(Coord{5, 7}), g.id(Coord{2, 7})), 3);
}

TEST(Routing, TorusTakesShorterWay) {
  const ChannelMap map(Geometry(16, 22), /*torus=*/true);
  const Geometry& g = map.geometry();
  // 0 -> 15 along x: 1 hop west on the torus, not 15 east.
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{15, 0})), 1);
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{0, 21})), 1);
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{8, 0})), 8);
}

TEST(Routing, SelfRouteThrows) {
  const ChannelMap map(Geometry(4, 4));
  EXPECT_THROW((void)map.route(3, 3), std::invalid_argument);
}

TEST(Routing, ChannelIdsAreDisjointRanges) {
  const ChannelMap map(Geometry(4, 4));
  EXPECT_FALSE(map.is_injection(map.link(0, Direction::kEast)));
  EXPECT_TRUE(map.is_injection(map.injection(5)));
  EXPECT_FALSE(map.is_ejection(map.injection(5)));
  EXPECT_TRUE(map.is_ejection(map.ejection(5)));
  EXPECT_EQ(map.channel_count(), 10 * 16);  // 8 link VCs + inj + ej per node
}

// ----------------------------------------------------------------- Wormhole

struct Harness {
  Simulator sim;
  WormholeNetwork net;
  std::vector<Delivery> deliveries;

  explicit Harness(Geometry g, NetworkParams p = NetworkParams{3, 8, false})
      : net(sim, g, p) {
    net.set_delivery_sink(
        [](void* ctx, const Delivery& d) {
          static_cast<Harness*>(ctx)->deliveries.push_back(d);
        },
        this);
  }
};

TEST(Wormhole, ContentionFreeLatencyMatchesFormula) {
  // One packet across D hops: latency = (D+1)(1+st) + P_len.
  for (const int st : {0, 1, 3}) {
    for (const int plen : {1, 4, 8}) {
      Harness h(Geometry(16, 22),
                NetworkParams{st, plen, false});
      const Geometry& g = h.net.channels().geometry();
      h.net.inject(g.id(Coord{2, 3}), g.id(Coord{9, 10}), 7);
      h.sim.run();
      ASSERT_EQ(h.deliveries.size(), 1u);
      const Delivery& d = h.deliveries[0];
      EXPECT_EQ(d.hops, 14);
      EXPECT_DOUBLE_EQ(d.latency, (14 + 1) * (1 + st) + plen);
      EXPECT_DOUBLE_EQ(d.latency, h.net.base_latency(14));
      EXPECT_DOUBLE_EQ(d.blocked, 0.0);
      EXPECT_EQ(d.tag, 7u);
    }
  }
}

TEST(Wormhole, AdjacentNodesMinimumLatency) {
  Harness h(Geometry(4, 4), NetworkParams{3, 8, false});
  const Geometry& g = h.net.channels().geometry();
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{1, 0}), 0);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(h.deliveries[0].latency, 2 * 4 + 8);  // 2 channels + drain
}

TEST(Wormhole, EveryInjectedPacketDeliveredExactlyOnce) {
  Harness h(Geometry(8, 8));
  const Geometry& g = h.net.channels().geometry();
  int count = 0;
  for (NodeId s = 0; s < g.nodes(); ++s)
    for (const NodeId t : {(s + 7) % g.nodes(), (s + 21) % g.nodes()})
      if (s != t) {
        h.net.inject(s, t, static_cast<std::uint64_t>(count++));
      }
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), static_cast<std::size_t>(count));
  EXPECT_EQ(h.net.in_flight(), 0u);
  EXPECT_EQ(h.net.metrics().delivered, static_cast<std::uint64_t>(count));
}

TEST(Wormhole, SameSourceSerialisesOnInjectionChannel) {
  Harness h(Geometry(8, 1), NetworkParams{0, 4, false});
  const Geometry& g = h.net.channels().geometry();
  // Two packets from node 0: the second must wait for the injection port.
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{7, 0}), 1);
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{7, 0}), 2);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(h.deliveries[0].blocked, 0.0);
  EXPECT_GT(h.deliveries[1].blocked, 0.0);
  EXPECT_GT(h.deliveries[1].latency, h.deliveries[0].latency);
}

TEST(Wormhole, ContentionOnSharedLinkBlocksSecondHeader) {
  Harness h(Geometry(4, 1), NetworkParams{0, 8, false});
  const Geometry& g = h.net.channels().geometry();
  // Both packets need link (1->2); injected same cycle from different nodes.
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{3, 0}), 1);
  h.net.inject(g.id(Coord{1, 0}), g.id(Coord{3, 0}), 2);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 2u);
  double total_blocked = 0;
  for (const auto& d : h.deliveries) total_blocked += d.blocked;
  EXPECT_GT(total_blocked, 0.0);
  EXPECT_GT(h.net.metrics().blocking.max(), 0.0);
}

TEST(Wormhole, DisjointPathsDoNotInteract) {
  Harness h(Geometry(8, 8), NetworkParams{3, 8, false});
  const Geometry& g = h.net.channels().geometry();
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{7, 0}), 1);  // row 0
  h.net.inject(g.id(Coord{0, 7}), g.id(Coord{7, 7}), 2);  // row 7
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 2u);
  for (const auto& d : h.deliveries) EXPECT_DOUBLE_EQ(d.blocked, 0.0);
}

TEST(Wormhole, HeavyRandomTrafficDrainsCompletely) {
  Harness h(Geometry(16, 22));
  const Geometry& g = h.net.channels().geometry();
  procsim::des::Xoshiro256SS rng(17);
  for (int i = 0; i < 2000; ++i) {
    const auto s = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    auto t = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    if (t == s) t = (t + 1) % g.nodes();
    h.net.inject(s, t, static_cast<std::uint64_t>(i));
  }
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), 2000u);  // conservation, no deadlock
  EXPECT_EQ(h.net.in_flight(), 0u);
  // Latency never below the contention-free bound.
  for (const auto& d : h.deliveries)
    EXPECT_GE(d.latency, h.net.base_latency(d.hops) - 1e-9);
}

TEST(Wormhole, TorusTrafficDrainsCompletely) {
  Harness h(Geometry(8, 8), NetworkParams{3, 8, true});
  const Geometry& g = h.net.channels().geometry();
  procsim::des::Xoshiro256SS rng(23);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    auto t = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    if (t == s) t = (t + 1) % g.nodes();
    h.net.inject(s, t, static_cast<std::uint64_t>(i));
  }
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), 500u);
}

TEST(Wormhole, FifoArbitrationOrdersWaiters) {
  Harness h(Geometry(4, 1), NetworkParams{0, 8, false});
  const Geometry& g = h.net.channels().geometry();
  // Three packets to the same destination: ejection port serialises; FIFO
  // order of arrival at the contended channel decides delivery order.
  h.net.inject(g.id(Coord{2, 0}), g.id(Coord{3, 0}), 1);  // closest, wins
  h.net.inject(g.id(Coord{1, 0}), g.id(Coord{3, 0}), 2);
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{3, 0}), 3);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 3u);
  EXPECT_EQ(h.deliveries[0].tag, 1u);
  EXPECT_EQ(h.deliveries[1].tag, 2u);
  EXPECT_EQ(h.deliveries[2].tag, 3u);
}

TEST(Wormhole, MetricsAccumulate) {
  Harness h(Geometry(8, 8));
  const Geometry& g = h.net.channels().geometry();
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{3, 4}), 1);
  h.sim.run();
  EXPECT_EQ(h.net.metrics().injected, 1u);
  EXPECT_EQ(h.net.metrics().delivered, 1u);
  EXPECT_DOUBLE_EQ(h.net.metrics().hops.mean(), 7.0);
}

TEST(Wormhole, ResetMidFlightDropsPacketsAndStartsClean) {
  // A run stopped early (target_completions) leaves worms in the network;
  // reset() together with the simulator's must drop them so the next
  // replication starts from an empty mesh.
  for (const NetEngine engine : {NetEngine::kStepped, NetEngine::kBatched,
                                 NetEngine::kVerify, NetEngine::kAnalytic}) {
    SCOPED_TRACE(procsim::network::net_engine_name(engine));
    Harness h(Geometry(8, 8), NetworkParams{3, 8, false, engine});
    const Geometry& g = h.net.channels().geometry();
    for (NodeId s = 0; s < 8; ++s) h.net.inject(s, g.id(Coord{7, 7}), 1);
    h.sim.run_until(20.0);
    EXPECT_GT(h.net.in_flight(), 0u);
    h.sim.reset();
    h.net.reset();
    EXPECT_EQ(h.net.metrics().injected, 0u);
    EXPECT_EQ(h.net.metrics().delivered, 0u);
    EXPECT_EQ(h.net.stats().runs_batched, 0u);
    h.deliveries.clear();
    h.net.inject(g.id(Coord{0, 0}), g.id(Coord{3, 4}), 2);
    h.sim.run();
    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.deliveries[0].tag, 2u);
    EXPECT_DOUBLE_EQ(h.deliveries[0].latency, h.net.base_latency(7));
    EXPECT_DOUBLE_EQ(h.deliveries[0].blocked, 0.0);
    EXPECT_EQ(h.net.metrics().delivered, 1u);
  }
}

TEST(Wormhole, RejectsBadParams) {
  Simulator sim;
  EXPECT_THROW(WormholeNetwork(sim, Geometry(4, 4), NetworkParams{-1, 8, false}),
               std::invalid_argument);
  EXPECT_THROW(WormholeNetwork(sim, Geometry(4, 4), NetworkParams{3, 0, false}),
               std::invalid_argument);
}

}  // namespace
