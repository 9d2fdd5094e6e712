// Property suite shared by every allocation strategy: soundness of the
// occupancy bookkeeping, exactness of release, the non-contiguous
// completeness guarantee, and determinism — exercised under randomized
// allocate/release churn on several mesh shapes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/registry.hpp"
#include "core/experiment.hpp"
#include "des/distributions.hpp"
#include "des/rng.hpp"
#include "workload/shape.hpp"

namespace {

using procsim::alloc::Allocator;
using procsim::alloc::Placement;
using procsim::alloc::Request;
using procsim::core::AllocatorSpec;
using procsim::core::make_allocator;
using procsim::mesh::Geometry;
using procsim::mesh::NodeId;
using procsim::mesh::SubMesh;

struct Shape {
  std::int32_t w;
  std::int32_t l;
};

using Param = std::tuple<const char*, Shape, std::uint64_t>;

class AllocProperty : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] std::unique_ptr<Allocator> make() const {
    const auto [name, shape, seed] = GetParam();
    return make_allocator(AllocatorSpec{name}, Geometry(shape.w, shape.l), seed);
  }
  [[nodiscard]] std::uint64_t seed() const { return std::get<2>(GetParam()); }
};

/// Every block of a placement lies in the mesh and blocks are disjoint.
void expect_placement_sound(const Placement& p, const Geometry& g, const Request& req) {
  std::int32_t covered = 0;
  for (const SubMesh& b : p.blocks) {
    EXPECT_TRUE(b.valid());
    EXPECT_TRUE(g.contains(b.base()));
    EXPECT_TRUE(g.contains(b.end()));
    covered += b.area();
  }
  for (std::size_t i = 0; i < p.blocks.size(); ++i)
    for (std::size_t j = i + 1; j < p.blocks.size(); ++j)
      EXPECT_FALSE(p.blocks[i].overlaps(p.blocks[j]));
  EXPECT_EQ(covered, p.allocated);
  EXPECT_EQ(static_cast<std::int32_t>(p.compute_nodes.size()), req.processors);
  EXPECT_LE(req.processors, p.allocated);
  // Compute nodes are distinct and lie inside the blocks.
  std::set<NodeId> uniq(p.compute_nodes.begin(), p.compute_nodes.end());
  EXPECT_EQ(uniq.size(), p.compute_nodes.size());
  for (const NodeId n : p.compute_nodes) {
    bool inside = false;
    for (const SubMesh& b : p.blocks)
      if (b.contains(g.coord(n))) inside = true;
    EXPECT_TRUE(inside);
  }
}

Request random_request(procsim::des::Xoshiro256SS& rng, const Geometry& g) {
  const auto w = static_cast<std::int32_t>(
      procsim::des::sample_uniform_int(rng, 1, g.width()));
  const auto l = static_cast<std::int32_t>(
      procsim::des::sample_uniform_int(rng, 1, g.length()));
  return Request{w, l, w * l};
}

TEST_P(AllocProperty, ChurnKeepsBookkeepingConsistent) {
  const auto alloc = make();
  const Geometry g = alloc->geometry();
  procsim::des::Xoshiro256SS rng(seed());

  std::vector<std::pair<Request, Placement>> held;
  std::int64_t held_allocated = 0;
  for (int step = 0; step < 400; ++step) {
    if (held.empty() || procsim::des::sample_bernoulli(rng, 0.55)) {
      const Request req = random_request(rng, g);
      if (auto p = alloc->allocate(req)) {
        expect_placement_sound(*p, g, req);
        held_allocated += p->allocated;
        held.emplace_back(req, std::move(*p));
      }
    } else {
      const auto i = static_cast<std::size_t>(procsim::des::sample_uniform_int(
          rng, 0, static_cast<std::int64_t>(held.size()) - 1));
      held_allocated -= held[i].second.allocated;
      alloc->release(held[i].second);
      held[i] = std::move(held.back());
      held.pop_back();
    }
    // The ground-truth bitmap agrees with the running total.
    EXPECT_EQ(alloc->free_processors() + held_allocated, g.nodes());
  }
  for (const auto& [req, p] : held) alloc->release(p);
  EXPECT_EQ(alloc->free_processors(), g.nodes());
}

TEST_P(AllocProperty, HeldPlacementsNeverOverlap) {
  const auto alloc = make();
  const Geometry g = alloc->geometry();
  procsim::des::Xoshiro256SS rng(seed() ^ 0xABCDULL);

  std::vector<Placement> held;
  for (int step = 0; step < 100; ++step) {
    const Request req = random_request(rng, g);
    if (auto p = alloc->allocate(req)) held.push_back(std::move(*p));
  }
  std::set<NodeId> seen;
  for (const Placement& p : held)
    for (const SubMesh& b : p.blocks)
      for (std::int32_t y = b.y1; y <= b.y2; ++y)
        for (std::int32_t x = b.x1; x <= b.x2; ++x) {
          const auto [_, inserted] = seen.insert(g.id(procsim::mesh::Coord{x, y}));
          EXPECT_TRUE(inserted) << "node allocated to two jobs";
        }
  for (const Placement& p : held) alloc->release(p);
}

TEST_P(AllocProperty, NonContiguousSucceedsIffEnoughFree) {
  const auto alloc = make();
  if (!alloc->is_noncontiguous()) GTEST_SKIP() << "contiguous baseline";
  const Geometry g = alloc->geometry();
  procsim::des::Xoshiro256SS rng(seed() ^ 0x5555ULL);

  std::vector<Placement> held;
  for (int step = 0; step < 200; ++step) {
    const Request req = random_request(rng, g);
    const bool enough =
        alloc->free_processors() >= static_cast<std::int64_t>(req.width) * req.length;
    auto p = alloc->allocate(req);
    EXPECT_EQ(p.has_value(), enough)
        << "free=" << alloc->free_processors() << " req=" << req.width << "x"
        << req.length;
    if (p) held.push_back(std::move(*p));
    if (alloc->free_processors() < g.nodes() / 4 && !held.empty()) {
      alloc->release(held.back());
      held.pop_back();
    }
  }
  for (const Placement& p : held) alloc->release(p);
}

TEST_P(AllocProperty, DeterministicForIdenticalSequences) {
  const auto a1 = make();
  const auto a2 = make();
  procsim::des::Xoshiro256SS rng1(seed() ^ 0xD7ULL), rng2(seed() ^ 0xD7ULL);
  for (int step = 0; step < 120; ++step) {
    const Request r1 = random_request(rng1, a1->geometry());
    const Request r2 = random_request(rng2, a2->geometry());
    ASSERT_EQ(r1.width, r2.width);
    const auto p1 = a1->allocate(r1);
    const auto p2 = a2->allocate(r2);
    ASSERT_EQ(p1.has_value(), p2.has_value());
    if (p1) {
      EXPECT_EQ(p1->blocks, p2->blocks);
      EXPECT_EQ(p1->compute_nodes, p2->compute_nodes);
    }
  }
}

TEST_P(AllocProperty, ResetRestoresPristineMesh) {
  const auto alloc = make();
  procsim::des::Xoshiro256SS rng(seed());
  for (int i = 0; i < 10; ++i) (void)alloc->allocate(random_request(rng, alloc->geometry()));
  alloc->reset();
  EXPECT_EQ(alloc->free_processors(), alloc->geometry().nodes());
  // A full-mesh request must succeed on the pristine mesh (non-contiguous
  // strategies and contiguous alike).
  const Request full{alloc->geometry().width(), alloc->geometry().length(),
                     alloc->geometry().nodes()};
  EXPECT_TRUE(alloc->allocate(full).has_value());
}

constexpr const char* kAllKinds[] = {"GABL",     "Paging(0)", "MBS",
                                     "FirstFit", "BestFit",   "Random"};

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, AllocProperty,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(Shape{16, 22}, Shape{8, 8}, Shape{5, 9}),
                       ::testing::Values(11u, 29u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      const AllocatorSpec spec{std::get<0>(info.param)};
      const Shape s = std::get<1>(info.param);
      std::string name = spec.label() + "_" + std::to_string(s.w) + "x" +
                         std::to_string(s.l) + "_s" +
                         std::to_string(std::get<2>(info.param));
      for (char& c : name)
        if (c == '(' || c == ')') c = '_';
      return name;
    });

/// `blocks` with every block cut in two (by rows, else by columns, when it
/// has more than one node) and the pieces shuffled: the same union.
std::vector<SubMesh> split_and_shuffle(const std::vector<SubMesh>& blocks,
                                       procsim::des::Xoshiro256SS& rng) {
  std::vector<SubMesh> out;
  for (const SubMesh& b : blocks) {
    if (b.y2 > b.y1) {
      const std::int32_t y = (b.y1 + b.y2) / 2;
      out.push_back(SubMesh{b.x1, b.y1, b.x2, y});
      out.push_back(SubMesh{b.x1, y + 1, b.x2, b.y2});
    } else if (b.x2 > b.x1) {
      const std::int32_t x = (b.x1 + b.x2) / 2;
      out.push_back(SubMesh{b.x1, b.y1, x, b.y2});
      out.push_back(SubMesh{x + 1, b.y1, b.x2, b.y2});
    } else {
      out.push_back(b);
    }
  }
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[static_cast<std::size_t>(procsim::des::sample_uniform_int(
                              rng, 0, static_cast<std::int64_t>(i) - 1))]);
  return out;
}

// The shape probe (can_allocate_with_free) answers from the union of the
// free nodes and the released blocks alone, and never turns a yes into a no
// as that union grows: EASY backfilling carries its reservation walk across
// starts and completions on these two properties. On random occupancies,
// released lists that nest (the empty list, then one held placement's
// blocks more at a time) must never turn yes into no, and cutting or
// reordering a list's blocks must not change an answer.
TEST(AllocatorProperties, ShapeProbeDependsOnlyOnTheFreedUnionAndGrowsWithIt) {
  std::vector<std::string> names = procsim::alloc::known_allocators();
  names.emplace_back("Paging(1)");
  for (const std::string& name : names) {
    for (const Geometry g : {Geometry(16, 22), Geometry(70, 12), Geometry(9, 5)}) {
      const auto alloc = make_allocator(AllocatorSpec{name}, g, 17);
      procsim::des::Xoshiro256SS rng(g.nodes() * 31u + 7u);
      std::vector<Placement> held;
      int answers = 0;
      for (int round = 0; round < 12; ++round) {
        for (int step = 0; step < 30; ++step)
          if (auto p = alloc->allocate(random_request(rng, g))) held.push_back(std::move(*p));
        for (std::size_t i = held.size(); i-- > 0;)
          if (procsim::des::sample_bernoulli(rng, 0.3)) {
            alloc->release(held[i]);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
          }
        std::vector<std::size_t> order(held.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = order.size(); i > 1; --i)
          std::swap(order[i - 1], order[static_cast<std::size_t>(procsim::des::sample_uniform_int(
                                      rng, 0, static_cast<std::int64_t>(i) - 1))]);
        for (int q = 0; q < 8; ++q) {
          Request req = random_request(rng, g);
          if (q % 2 == 1) {  // trace-shaped: p processors in a derived box
            req.processors = static_cast<std::int32_t>(
                procsim::des::sample_uniform_int(rng, 1, g.nodes()));
            std::tie(req.width, req.length) =
                procsim::workload::shape_for_processors(req.processors, g);
          }
          std::vector<SubMesh> released;
          bool before = false;
          for (std::size_t k = 0; k <= order.size(); ++k) {
            if (k > 0) {
              const Placement& p = held[order[k - 1]];
              released.insert(released.end(), p.blocks.begin(), p.blocks.end());
            }
            const bool yes = alloc->can_allocate_with_free(req, released);
            EXPECT_TRUE(yes || !before)
                << name << " " << g.width() << "x" << g.length() << " round " << round
                << ": yes turned no at " << k << " of " << order.size() << " placements";
            EXPECT_EQ(alloc->can_allocate_with_free(req, split_and_shuffle(released, rng)), yes)
                << name << " " << g.width() << "x" << g.length() << " round " << round;
            before = yes;
            ++answers;
          }
        }
      }
      EXPECT_GT(answers, 500) << name;
      for (const Placement& p : held) alloc->release(p);
    }
  }
}

// The probe (can_allocate) reads only the request and the free set, and a
// "no" stands while the free set only shrinks: the probing schedulers
// remember a refusal until the next release on these two properties
// (sched::AllocProbe). Under seeded churn, a request refused at one
// occupancy must stay refused after each further allocate, and equal
// requests, asked again in the opposite order, get equal answers.
TEST(AllocatorProperties, ProbeRefusalSurvivesAllocation) {
  std::vector<std::string> names = procsim::alloc::known_allocators();
  names.emplace_back("Paging(1)");
  for (const std::string& name : names) {
    for (const Geometry g : {Geometry(16, 22), Geometry(70, 12), Geometry(9, 5)}) {
      const auto alloc = make_allocator(AllocatorSpec{name}, g, 17);
      procsim::des::Xoshiro256SS rng(g.nodes() * 37u + 11u);
      std::vector<Placement> held;
      int kept = 0;
      for (int round = 0; round < 12; ++round) {
        for (std::size_t i = held.size(); i-- > 0;)
          if (procsim::des::sample_bernoulli(rng, 0.4)) {
            alloc->release(held[i]);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
          }
        std::vector<Request> asked;
        std::vector<bool> answers;
        for (int q = 0; q < 16; ++q) {
          Request req = random_request(rng, g);
          if (q % 2 == 1) {  // trace-shaped: p processors in a derived box
            req.processors = static_cast<std::int32_t>(
                procsim::des::sample_uniform_int(rng, 1, g.nodes()));
            std::tie(req.width, req.length) =
                procsim::workload::shape_for_processors(req.processors, g);
          }
          asked.push_back(req);
          answers.push_back(alloc->can_allocate(req));
        }
        for (std::size_t q = asked.size(); q-- > 0;) {
          const Request copy{asked[q].width, asked[q].length, asked[q].processors};
          EXPECT_EQ(alloc->can_allocate(copy), answers[q])
              << name << " " << g.width() << "x" << g.length() << " round " << round
              << ": equal requests, unequal answers";
        }
        for (int step = 0; step < 20; ++step) {
          if (auto p = alloc->allocate(random_request(rng, g)))
            held.push_back(std::move(*p));
          for (std::size_t q = 0; q < asked.size(); ++q) {
            if (answers[q]) continue;
            EXPECT_FALSE(alloc->can_allocate(asked[q]))
                << name << " " << g.width() << "x" << g.length() << " round " << round
                << ": a refusal turned into yes after " << step + 1 << " allocations";
            ++kept;
          }
        }
      }
      EXPECT_GT(kept, 300) << name << " " << g.width() << "x" << g.length();
      for (const Placement& p : held) alloc->release(p);
    }
  }
}

// Trace-style requests (p with derived near-square shape) keep the same
// guarantees — this is the path the real-workload experiments exercise.
TEST(AllocTraceShapes, AllNonContiguousHandleArbitraryP) {
  const Geometry g(16, 22);
  for (const char* name : {"GABL", "Paging(0)", "MBS"}) {
    const AllocatorSpec spec{name};
    const auto alloc = make_allocator(spec, g, 1);
    for (std::int32_t p = 1; p <= 352; p += 7) {
      const auto [w, l] = procsim::workload::shape_for_processors(p, g);
      const auto placement = alloc->allocate(Request{w, l, p});
      ASSERT_TRUE(placement.has_value()) << spec.label() << " p=" << p;
      EXPECT_EQ(static_cast<std::int32_t>(placement->compute_nodes.size()), p);
      alloc->release(*placement);
      EXPECT_EQ(alloc->free_processors(), g.nodes());
    }
  }
}

}  // namespace
