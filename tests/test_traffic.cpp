#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/job_arena.hpp"
#include "des/distributions.hpp"
#include "des/rng.hpp"
#include "network/traffic.hpp"

namespace {

using procsim::core::StreamSet;
using procsim::des::Xoshiro256SS;
using procsim::mesh::NodeId;
using procsim::network::generate_message_plan;
using procsim::network::IndexPair;

TEST(Traffic, EmptyForSingleProcessor) {
  Xoshiro256SS rng(1);
  EXPECT_TRUE(generate_message_plan(1, 5, rng).empty());
  EXPECT_TRUE(generate_message_plan(8, 0, rng).empty());
  EXPECT_THROW((void)generate_message_plan(8, -1, rng), std::invalid_argument);
}

TEST(Traffic, NoSelfMessagesAnyPattern) {
  Xoshiro256SS rng(2);
  for (const std::int32_t k : {2, 3, 7, 32}) {
    const auto plan = generate_message_plan(k, 200, rng);
    ASSERT_EQ(plan.size(), 200u);
    for (const auto& [s, d] : plan) {
      EXPECT_NE(s, d);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, k);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, k);
    }
  }
}

TEST(Traffic, AllToAllSpreadsSources) {
  Xoshiro256SS rng(3);
  // count <= k consecutive slots of the phase schedule have distinct sources.
  const auto plan = generate_message_plan(20, 20, rng);
  std::set<std::int32_t> sources;
  for (const auto& [s, d] : plan) sources.insert(s);
  EXPECT_EQ(sources.size(), 20u);
}

TEST(Traffic, AllToAllCoversAllPairsOverFullSweep) {
  Xoshiro256SS rng(4);
  const std::int32_t k = 6;
  const auto plan = generate_message_plan(k, k * (k - 1), rng);
  std::set<IndexPair> pairs(plan.begin(), plan.end());
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(k * (k - 1)));
}

// The incremental (round, index) walk is the closed form slot by slot, from
// one start-slot draw, across wraps of the k(k-1) enumeration.
TEST(Traffic, AllToAllMatchesClosedFormFromOneDraw) {
  for (const std::int32_t k : {2, 3, 7, 352}) {
    const std::int64_t slots = static_cast<std::int64_t>(k) * (k - 1);
    const std::int64_t count = 2 * slots + 5;
    Xoshiro256SS rng(100 + static_cast<std::uint64_t>(k));
    Xoshiro256SS expect = rng;
    const auto plan = generate_message_plan(k, count, rng);
    ASSERT_EQ(plan.size(), static_cast<std::size_t>(count));

    std::int64_t at = procsim::des::sample_uniform_int(expect, 0, slots - 1);
    for (std::int64_t m = 0; m < count; ++m) {
      const auto i = static_cast<std::int32_t>(at % k);
      const auto d = static_cast<std::int32_t>((at % k + 1 + at / k) % k);
      ASSERT_EQ(plan[static_cast<std::size_t>(m)], IndexPair(i, d)) << "k=" << k << " m=" << m;
      at = (at + 1) % slots;
    }
    EXPECT_EQ(rng(), expect()) << "k=" << k;  // exactly one draw consumed
  }
}

TEST(Traffic, PlanIsDeterministicPerSeed) {
  Xoshiro256SS a(42), b(42);
  const auto p1 = generate_message_plan(11, 50, a);
  const auto p2 = generate_message_plan(11, 50, b);
  EXPECT_EQ(p1, p2);
}

/// Drains every stream of `s`: per source node, its destinations in order.
std::vector<std::pair<NodeId, std::vector<NodeId>>> drain(StreamSet& s) {
  std::vector<std::pair<NodeId, std::vector<NodeId>>> out;
  for (std::size_t i = 0; i < s.sources(); ++i) {
    out.emplace_back(s.source(i), std::vector<NodeId>{});
    while (const std::optional<NodeId> d = s.next_at(i)) out.back().second.push_back(*d);
  }
  return out;
}

// Two blocks listed out of id order, as a non-contiguous placement lists
// them: the streams come out in ascending node id, each source's
// destinations in plan order.
TEST(StreamSet, GroupsByAscendingSourceInPlanOrder) {
  const std::vector<NodeId> nodes{40, 41, 42, 3, 4};
  const std::vector<IndexPair> plan{{1, 3}, {3, 0}, {2, 4}, {1, 0}, {4, 2},
                                    {3, 2}, {1, 4}, {0, 1}};
  std::vector<std::uint32_t> stream_of_node(64, 0);
  StreamSet s;
  s.build(plan, nodes, stream_of_node);
  EXPECT_EQ(s.messages(), plan.size());
  using Stream = std::pair<NodeId, std::vector<NodeId>>;
  const std::vector<Stream> expect{{3, {40, 42}}, {4, {42}}, {40, {41}},
                                   {41, {3, 40, 4}}, {42, {4}}};
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(stream_of_node[static_cast<std::size_t>(expect[i].first)], i);
  EXPECT_EQ(drain(s), expect);
}

TEST(StreamSet, RejectsBadPlanEntries) {
  const std::vector<NodeId> nodes{10, 20};
  std::vector<std::uint32_t> stream_of_node(32, 0);
  StreamSet s;
  for (const IndexPair& bad : {IndexPair{0, 2}, IndexPair{1, 1}, IndexPair{-1, 0}})
    EXPECT_THROW(s.build(std::vector<IndexPair>{{0, 1}, bad}, nodes, stream_of_node),
                 std::invalid_argument)
        << bad.first << "," << bad.second;
}

// A later job on overlapping nodes builds over the earlier job's entries,
// including ones that point at valid indices of its own source list.
TEST(StreamSet, RebuildOverStaleEntriesResolvesEverySource) {
  std::vector<std::uint32_t> stream_of_node(16, 0);
  StreamSet first;
  first.build(std::vector<IndexPair>{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
              std::vector<NodeId>{5, 6, 7, 8}, stream_of_node);
  ASSERT_EQ(first.sources(), 4u);  // 5..8 -> streams 0..3

  const std::vector<NodeId> nodes{8, 1, 7, 2};
  StreamSet second;
  second.build(std::vector<IndexPair>{{0, 1}, {2, 3}, {3, 0}, {1, 0}, {0, 2}}, nodes,
               stream_of_node);
  ASSERT_EQ(second.sources(), 4u);
  for (const NodeId n : nodes) {
    const std::uint32_t i = stream_of_node[static_cast<std::size_t>(n)];
    ASSERT_LT(i, second.sources());
    EXPECT_EQ(second.source(i), n);
  }
  using Stream = std::pair<NodeId, std::vector<NodeId>>;
  EXPECT_EQ(drain(second), (std::vector<Stream>{{1, {8}}, {2, {8}}, {7, {2}}, {8, {1, 7}}}));
  // The earlier job's nodes that the later one did not reuse still resolve.
  for (const NodeId n : {5, 6})
    EXPECT_EQ(first.source(stream_of_node[static_cast<std::size_t>(n)]), n);
}

// The delivery path: next_from walks a source's stream through the array and
// throws for a node that is not a source of the set, whether its entry was
// never written, is out of range, or is a stale index that names another
// node's stream.
TEST(StreamSet, NextFromAdvancesAndRejectsNonSources) {
  std::vector<std::uint32_t> stream_of_node(16, 0);
  StreamSet s;
  s.build(std::vector<IndexPair>{{1, 0}, {2, 1}, {1, 2}}, std::vector<NodeId>{9, 4, 6},
          stream_of_node);
  EXPECT_EQ(s.next_from(4, stream_of_node), std::optional<NodeId>{9});
  EXPECT_EQ(s.next_from(4, stream_of_node), std::optional<NodeId>{6});
  EXPECT_EQ(s.next_from(4, stream_of_node), std::nullopt);
  EXPECT_EQ(s.next_from(6, stream_of_node), std::optional<NodeId>{4});
  EXPECT_EQ(s.next_from(6, stream_of_node), std::nullopt);

  EXPECT_THROW((void)s.next_from(9, stream_of_node), std::logic_error);  // destination only
  stream_of_node[3] = 7;  // out of range
  EXPECT_THROW((void)s.next_from(3, stream_of_node), std::logic_error);
  stream_of_node[12] = 1;  // stale: stream 1 is node 6's
  EXPECT_THROW((void)s.next_from(12, stream_of_node), std::logic_error);
}

}  // namespace
