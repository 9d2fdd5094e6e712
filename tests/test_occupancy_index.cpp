#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "alloc/registry.hpp"
#include "des/distributions.hpp"
#include "des/rng.hpp"
#include "mesh/free_submesh_scan.hpp"
#include "mesh/mesh_state.hpp"
#include "mesh/occupancy_index.hpp"

namespace {

using procsim::mesh::Coord;
using procsim::mesh::FreeSubmeshScan;
using procsim::mesh::Geometry;
using procsim::mesh::MeshState;
using procsim::mesh::NodeId;
using procsim::mesh::OccupancyIndex;
using procsim::mesh::SubMesh;

TEST(OccupancyIndex, EmptyMeshFirstFitAtOrigin) {
  OccupancyIndex idx(Geometry(8, 6));
  const auto s = idx.first_fit(3, 2);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, SubMesh::from_base(Coord{0, 0}, 3, 2));
  EXPECT_EQ(idx.free_count(), 48);
}

TEST(OccupancyIndex, ValidationMirrorsLegacyScan) {
  OccupancyIndex idx(Geometry(8, 6));
  EXPECT_FALSE(idx.first_fit(9, 1).has_value());
  EXPECT_FALSE(idx.first_fit(1, 7).has_value());
  EXPECT_THROW((void)idx.first_fit(0, 1), std::invalid_argument);
  EXPECT_THROW((void)idx.best_fit(1, -1), std::invalid_argument);
  EXPECT_THROW((void)idx.fits_rotatable(0, 3), std::invalid_argument);
  EXPECT_THROW((void)idx.fits_rotatable(3, -1), std::invalid_argument);
  EXPECT_FALSE(idx.fits_rotatable(9, 7));
  EXPECT_TRUE(idx.fits_rotatable(6, 8));  // only the rotated 8×6 fits
  EXPECT_THROW((void)idx.busy_in(SubMesh{0, 0, 8, 5}), std::invalid_argument);
}

/// fits_rotatable makes free_count / length first-fit scans at one
/// occupancy, then builds the frontier and reads it; an occupancy change
/// restarts the scans. Both paths must see rotation-only fits.
TEST(OccupancyIndex, FitsRotatableScansThenReadsTheFrontier) {
  OccupancyIndex idx(Geometry(8, 6));
  idx.allocate(SubMesh{0, 0, 7, 1});  // 32 free nodes: 6 scans (6 * 6 >= 32)
  const OccupancyIndex::QueryStats& st = idx.query_stats();
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(idx.fits_rotatable(4, 8)) << "scan " << i;
  EXPECT_EQ(st.frontier_passes, 0u);
  const std::uint64_t scans = st.first_fit_queries;
  EXPECT_EQ(scans, 12u);  // 4×8 fails, the rotated 8×4 fits
  EXPECT_TRUE(idx.fits_rotatable(4, 8));  // builds the frontier
  EXPECT_EQ(st.frontier_passes, 1u);
  const FreeSubmeshScan oracle(idx.to_mesh_state());
  for (std::int32_t a = 1; a <= 9; ++a)
    for (std::int32_t b = 1; b <= 9; ++b)
      EXPECT_EQ(idx.fits_rotatable(a, b), oracle.first_fit_rotatable(a, b).has_value())
          << "q=" << a << "x" << b;
  EXPECT_EQ(st.first_fit_queries, scans);
  EXPECT_EQ(st.frontier_passes, 1u);

  idx.allocate(SubMesh{0, 2, 0, 2});  // a new occupancy: scans again
  EXPECT_FALSE(idx.fits_rotatable(4, 8));
  EXPECT_TRUE(idx.fits_rotatable(3, 8));
  EXPECT_EQ(st.first_fit_queries, scans + 4);
  EXPECT_EQ(st.frontier_passes, 1u);
}

/// largest_free has one path: the first query at an occupancy rebuilds the
/// frontier, however narrow its caps, and every later one reads it.
TEST(OccupancyIndex, LargestFreeRebuildsTheFrontierOncePerOccupancy) {
  OccupancyIndex idx(Geometry(64, 16));
  const OccupancyIndex::QueryStats& st = idx.query_stats();
  idx.allocate(SubMesh{0, 0, 63, 3});
  EXPECT_EQ(idx.largest_free(2, 2), SubMesh::from_base(Coord{0, 4}, 2, 2));
  EXPECT_EQ(st.frontier_passes, 1u);
  EXPECT_EQ(st.frontier_hits, 0u);
  EXPECT_EQ(idx.largest_free(64, 16), SubMesh::from_base(Coord{0, 4}, 64, 12));
  EXPECT_EQ(st.frontier_passes, 1u);
  EXPECT_EQ(st.frontier_hits, 1u);
  idx.allocate(SubMesh{0, 4, 1, 5});  // a carved piece: the next query rebuilds
  EXPECT_EQ(idx.largest_free(2, 2), SubMesh::from_base(Coord{2, 4}, 2, 2));
  EXPECT_EQ(st.frontier_passes, 2u);
  EXPECT_EQ(st.frontier_hits, 1u);
}

TEST(OccupancyIndex, AllocateReleaseRoundTripUpdatesCounts) {
  OccupancyIndex idx(Geometry(10, 4));
  const SubMesh s{2, 1, 5, 3};
  idx.allocate(s);
  EXPECT_EQ(idx.free_count(), 40 - 12);
  EXPECT_EQ(idx.busy_in(SubMesh{0, 0, 9, 3}), 12);
  EXPECT_TRUE(idx.is_busy(Coord{2, 1}));
  EXPECT_FALSE(idx.is_free(s));
  idx.release(s);
  EXPECT_EQ(idx.free_count(), 40);
  EXPECT_TRUE(idx.is_free(s));
}

TEST(OccupancyIndex, PreconditionViolationsThrow) {
  OccupancyIndex idx(Geometry(6, 6));
  idx.allocate(SubMesh{0, 0, 2, 2});
  EXPECT_THROW(idx.allocate(SubMesh{2, 2, 3, 3}), std::logic_error);
  EXPECT_THROW(idx.release(SubMesh{3, 3, 4, 4}), std::logic_error);
  EXPECT_THROW(idx.allocate(SubMesh{4, 4, 6, 6}), std::out_of_range);
}

TEST(OccupancyIndex, WordBoundaryMeshes) {
  // Widths of exactly 64 and just over one word exercise the multi-word
  // shift/mask paths (the scaling meshes are 64- and 128-wide).
  for (const std::int32_t w : {63, 64, 65, 128}) {
    OccupancyIndex idx(Geometry(w, 3));
    idx.allocate(SubMesh{0, 0, w - 2, 2});  // leave the last column free
    const auto s = idx.first_fit(1, 3);
    ASSERT_TRUE(s.has_value()) << "width " << w;
    EXPECT_EQ(s->x1, w - 1) << "width " << w;
    EXPECT_FALSE(idx.first_fit(2, 1).has_value()) << "width " << w;
    const auto big = idx.largest_free(w, 3);
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(big->area(), 3) << "width " << w;
  }
}

TEST(OccupancyIndex, ToMeshStateRoundTrips) {
  OccupancyIndex idx(Geometry(9, 5));
  idx.allocate(SubMesh{1, 1, 3, 2});
  idx.allocate(SubMesh{7, 4, 8, 4});
  const MeshState state = idx.to_mesh_state();
  EXPECT_EQ(state.free_count(), idx.free_count());
  for (std::int32_t y = 0; y < 5; ++y)
    for (std::int32_t x = 0; x < 9; ++x)
      EXPECT_EQ(state.is_busy(Coord{x, y}), idx.is_busy(Coord{x, y}));
}

/// fits_rotatable scans for the first free_count / length probes at one
/// occupancy and then reads the feasibility frontier that largest_free
/// caches per occupancy generation, so the equivalence tests ask it on both
/// sides of a narrow-cap and a wide-cap largest_free, whichever of them
/// builds the frontier. Per step one of these orders runs ('F'
/// fits_rotatable until it has built the frontier, 'f' fits_rotatable
/// once, 'n' narrow, 'w' wide): the probes scan, then build the frontier
/// both largest_free calls read; a probe scans, the narrow call builds the
/// frontier and the wide call and a probe read it; the wide call builds it
/// and the probes and the narrow call read it.
constexpr char kFitOrders[3][4] = {
    {'F', 'n', 'w', 'f'}, {'f', 'n', 'w', 'f'}, {'w', 'f', 'n', 'f'}};

/// Asks fits_rotatable(a, b) once ('f') or often enough to exhaust its scan
/// budget and build the frontier ('F'), expecting `want` every time.
::testing::AssertionResult fits_as_expected(const OccupancyIndex& idx, char q,
                                            std::int32_t a, std::int32_t b, bool want) {
  const std::int32_t asks =
      q == 'F' ? idx.free_count() / idx.geometry().length() + 2 : 1;
  for (std::int32_t i = 0; i < asks; ++i)
    if (idx.fits_rotatable(a, b) != want)
      return ::testing::AssertionFailure() << "ask " << i << " q=" << a << "x" << b;
  return ::testing::AssertionSuccess();
}

/// Satellite: thousands of allocate/release steps on random geometries, with
/// the index's first/best/largest-fit answers checked against the legacy
/// FreeSubmeshScan oracle on every step.
class IndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexEquivalence, MatchesLegacyScanUnderChurn) {
  procsim::des::Xoshiro256SS rng(GetParam());
  // Geometry drawn at random, biased to include word-boundary widths.
  const std::int32_t widths[] = {5, 9, 16, 31, 33, 63, 64, 65};
  const std::int32_t w = widths[procsim::des::sample_uniform_int(rng, 0, 7)];
  const auto l =
      static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 3, 24));
  const Geometry g(w, l);

  MeshState state(g);
  OccupancyIndex idx(g);
  std::vector<SubMesh> live;
  std::vector<NodeId> free;  // reused across steps, as Random reuses it

  const std::int32_t side_cap_w = std::max(1, g.width() / 2);
  const std::int32_t side_cap_l = std::max(1, g.length() / 2);
  for (int step = 0; step < 500; ++step) {
    // Mutate: mostly allocate (via the oracle's own first_fit so the test
    // doesn't trust the index for placement), otherwise release.
    const auto a =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, side_cap_w));
    const auto b =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, side_cap_l));
    if (live.empty() || procsim::des::sample_bernoulli(rng, 0.6)) {
      const FreeSubmeshScan scan(state);
      if (const auto s = scan.first_fit(a, b)) {
        state.allocate(*s);
        idx.allocate(*s);
        live.push_back(*s);
      }
    } else {
      const auto i = static_cast<std::size_t>(procsim::des::sample_uniform_int(
          rng, 0, static_cast<std::int64_t>(live.size()) - 1));
      state.release(live[i]);
      idx.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    }

    // Compare every query family against the oracle on the mutated state.
    const FreeSubmeshScan oracle(state);
    ASSERT_EQ(idx.free_count(), state.free_count()) << "step " << step;
    idx.free_nodes_into(free);
    ASSERT_EQ(free, state.free_nodes()) << "step " << step;
    const auto qa =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, g.width()));
    const auto qb =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, g.length()));
    ASSERT_EQ(idx.first_fit(qa, qb), oracle.first_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    ASSERT_EQ(idx.first_fit_rotatable(qa, qb), oracle.first_fit_rotatable(qa, qb))
        << "step " << step;
    ASSERT_EQ(idx.best_fit(qa, qb), oracle.best_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    // Narrow caps (max_w <= W/4, GABL's carving shape) and wide caps read
    // the same frontier; the wide range stays within 8 widths so the
    // oracle's scan stays affordable.
    const std::int32_t quarter = std::max(1, g.width() / 4);
    const auto nw = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, std::min(quarter, 8)));
    const auto ww = static_cast<std::int32_t>(procsim::des::sample_uniform_int(
        rng, std::min(quarter + 1, g.width()), std::min(quarter + 8, g.width())));
    const auto cl = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, std::min(g.length(), 8)));
    const bool want_fit = oracle.first_fit_rotatable(qa, qb).has_value();
    for (const char q : kFitOrders[step % 3]) {
      if (q == 'f' || q == 'F') {
        ASSERT_TRUE(fits_as_expected(idx, q, qa, qb, want_fit)) << "step " << step;
      } else {
        const std::int32_t cw = q == 'n' ? nw : ww;
        ASSERT_EQ(idx.largest_free(cw, cl), oracle.largest_free(cw, cl))
            << "step " << step << " caps=" << cw << "x" << cl;
      }
    }
    // Uncapped largest_free is the *oracle's* quadratic worst case, so it is
    // sampled rather than run every step; the capped variant above already
    // covers the index's search loop each step.
    if (step % 16 == 0) {
      const auto area_cap = procsim::des::sample_uniform_int(rng, 1, g.nodes());
      ASSERT_EQ(idx.largest_free(g.width(), g.length(), area_cap),
                oracle.largest_free(g.width(), g.length(), area_cap))
          << "step " << step << " area_cap=" << area_cap;
    }
  }
  // The frontier was both rebuilt and read from cache.
  EXPECT_GT(idx.query_stats().frontier_passes, 0u);
  EXPECT_GT(idx.query_stats().frontier_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, IndexEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(OccupancyIndex, FreeNodesIntoRetainsCapacityAcrossCalls) {
  // Random rebuilds its free list on every allocation with one reused
  // buffer; at a 512×512 mesh (262,144 nodes) a per-call reallocation would
  // be a malloc/free of a megabyte per event. The contract: after a first
  // call sized the buffer, later calls never reallocate (clear() + reserve()
  // within existing capacity keep the same heap block).
  OccupancyIndex idx(Geometry(512, 512));
  std::vector<NodeId> buf;
  idx.free_nodes_into(buf);
  ASSERT_EQ(buf.size(), 262144u);
  const std::size_t cap = buf.capacity();
  const NodeId* data = buf.data();
  // Churn occupancy between calls so the free list genuinely changes size.
  idx.allocate(SubMesh{0, 0, 255, 255});
  idx.free_nodes_into(buf);
  EXPECT_EQ(buf.size(), 262144u - 65536u);
  EXPECT_EQ(buf.front(), 256);  // row 0 resumes past the busy block
  EXPECT_EQ(buf.capacity(), cap);
  EXPECT_EQ(buf.data(), data);
  idx.release(SubMesh{0, 0, 255, 255});
  idx.free_nodes_into(buf);
  EXPECT_EQ(buf.size(), 262144u);
  EXPECT_EQ(buf.capacity(), cap);
  EXPECT_EQ(buf.data(), data);
}

/// 512-scale word-boundary widths: 511 (eight words with a 63-bit tail) and
/// 512 (exactly eight full words, tail_mask all ones). Lengths stay small so
/// the quadratic legacy oracle stays affordable per step — the *width* is
/// what exercises the multi-word shift/mask/frontier arithmetic.
class WideIndexEquivalence : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(WideIndexEquivalence, MatchesLegacyScanUnderChurn) {
  const std::int32_t w = GetParam();
  procsim::des::Xoshiro256SS rng(0x51DE + static_cast<std::uint64_t>(w));
  const Geometry g(w, 10);
  MeshState state(g);
  OccupancyIndex idx(g);
  std::vector<SubMesh> live;
  std::vector<NodeId> free;

  for (int step = 0; step < 150; ++step) {
    const auto a = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, g.width() / 2));
    const auto b = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, 5));
    if (live.empty() || procsim::des::sample_bernoulli(rng, 0.6)) {
      const FreeSubmeshScan scan(state);
      if (const auto s = scan.first_fit(a, b)) {
        state.allocate(*s);
        idx.allocate(*s);
        live.push_back(*s);
      }
    } else {
      const auto i = static_cast<std::size_t>(procsim::des::sample_uniform_int(
          rng, 0, static_cast<std::int64_t>(live.size()) - 1));
      state.release(live[i]);
      idx.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    }

    const FreeSubmeshScan oracle(state);
    ASSERT_EQ(idx.free_count(), state.free_count()) << "step " << step;
    idx.free_nodes_into(free);
    ASSERT_EQ(free, state.free_nodes()) << "step " << step;
    const auto qa = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, g.width()));
    const auto qb = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, g.length()));
    ASSERT_EQ(idx.first_fit(qa, qb), oracle.first_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    ASSERT_EQ(idx.best_fit(qa, qb), oracle.best_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    // Narrow caps and wide caps (past W/4) must both reproduce the oracle
    // at these widths, with fits_rotatable asked around them as in
    // IndexEquivalence.
    const auto nw = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, 16));
    const auto ww = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, g.width() / 4 + 1, g.width() / 4 + 8));
    const auto cl = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, 8));
    const bool want_fit = oracle.first_fit_rotatable(qa, qb).has_value();
    for (const char q : kFitOrders[step % 3]) {
      if (q == 'f' || q == 'F') {
        ASSERT_TRUE(fits_as_expected(idx, q, qa, qb, want_fit)) << "step " << step;
      } else {
        const std::int32_t cw = q == 'n' ? nw : ww;
        ASSERT_EQ(idx.largest_free(cw, cl), oracle.largest_free(cw, cl))
            << "step " << step << " caps=" << cw << "x" << cl;
      }
    }
    if (step % 25 == 0) {
      const auto area_cap = procsim::des::sample_uniform_int(rng, 1, g.nodes());
      ASSERT_EQ(idx.largest_free(g.width(), g.length(), area_cap),
                oracle.largest_free(g.width(), g.length(), area_cap))
          << "step " << step << " area_cap=" << area_cap;
    }
  }
  EXPECT_GT(idx.query_stats().frontier_passes, 0u);
  EXPECT_GT(idx.query_stats().frontier_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(WordBoundary512, WideIndexEquivalence,
                         ::testing::Values(511, 512));

/// Hand-built fixtures pinning the documented largest_free preference order
/// (README "Allocators & the occupancy index"): (1) maximum capped area,
/// (2) smallest width among equal areas, (3) first row-major (y, x) base.
/// Each case also re-checks the claim against the oracle on the same state.
TEST(OccupancyIndex, LargestFreeTieBreaksMatchDocumentedOrder) {
  const Geometry g(16, 16);
  const auto oracle_agrees = [](const OccupancyIndex& idx, std::int32_t cw,
                                std::int32_t cl, std::int64_t cap) {
    return idx.largest_free(cw, cl, cap) ==
           FreeSubmeshScan(idx.to_mesh_state()).largest_free(cw, cl, cap);
  };

  {
    // Smallest width wins on equal areas, even though the wider 4×3 sits
    // earlier in row-major order than the 3×4.
    OccupancyIndex idx(g);
    idx.allocate(SubMesh{0, 0, 15, 15});
    idx.release(SubMesh{2, 1, 5, 3});    // 4 wide × 3 tall, area 12, early
    idx.release(SubMesh{10, 8, 12, 11});  // 3 wide × 4 tall, area 12, late
    const auto s = idx.largest_free(16, 16);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, (SubMesh{10, 8, 12, 11}));
    EXPECT_TRUE(oracle_agrees(idx, 16, 16,
                              std::numeric_limits<std::int64_t>::max()));
  }
  {
    // Equal area and equal width: the first (y, x) base in row-major order.
    OccupancyIndex idx(g);
    idx.allocate(SubMesh{0, 0, 15, 15});
    idx.release(SubMesh{9, 0, 11, 3});   // 3×4 at (9, 0)
    idx.release(SubMesh{2, 5, 4, 8});    // 3×4 at (2, 5) — later row
    const auto s = idx.largest_free(16, 16);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->base(), (Coord{9, 0}));
    EXPECT_TRUE(oracle_agrees(idx, 16, 16,
                              std::numeric_limits<std::int64_t>::max()));
  }
  {
    // The area cap reshapes the winner: inside a free 5×5 block, max_area 12
    // admits 3×4 (w=3 reaches area 12 first; w=4×3 ties and loses on width).
    OccupancyIndex idx(g);
    idx.allocate(SubMesh{0, 0, 15, 15});
    idx.release(SubMesh{4, 4, 8, 8});
    const auto s = idx.largest_free(16, 16, 12);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, SubMesh::from_base(Coord{4, 4}, 3, 4));
    EXPECT_TRUE(oracle_agrees(idx, 16, 16, 12));
    // Width cap 2 forces the tall 2×5 strip instead.
    const auto t = idx.largest_free(2, 16);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, SubMesh::from_base(Coord{4, 4}, 2, 5));
    EXPECT_TRUE(oracle_agrees(idx, 2, 16,
                              std::numeric_limits<std::int64_t>::max()));
  }
}

/// The frontier pass consumes a busy run in one step (flush the stack at its
/// first cell, zero its heights, jump to the next free bit). Pin it where
/// runs meet word edges: one busy run crosses the 64-bit word boundary,
/// another runs into the tail bits past the width, a third straddles the
/// boundary by one cell each side.
TEST(OccupancyIndex, LargestFreeWithBusyRunsAtWordEdges) {
  for (const std::int32_t w : {65, 128}) {
    const Geometry g(w, 6);
    OccupancyIndex idx(g);
    idx.allocate(SubMesh{10, 0, 20, 0});
    idx.allocate(SubMesh{60, 1, std::min(67, w - 1), 2});  // crosses bit 63|64
    idx.allocate(SubMesh{w - 3, 3, w - 1, 4});             // runs into the tail
    idx.allocate(SubMesh{63, 5, 64, 5});
    const FreeSubmeshScan oracle(idx.to_mesh_state());
    for (const auto& [cw, cl] : {std::pair{w, 6}, std::pair{w / 2, 3}, std::pair{64, 6},
                                 std::pair{w - 2, 2}, std::pair{3, 6}}) {
      ASSERT_EQ(idx.largest_free(cw, cl), oracle.largest_free(cw, cl))
          << "width " << w << " caps=" << cw << "x" << cl;
    }
    EXPECT_GT(idx.query_stats().frontier_passes, 0u) << "width " << w;
    for (std::int32_t a = 1; a <= w; ++a)
      for (std::int32_t b = 1; b <= 6; ++b)
        ASSERT_EQ(idx.fits_rotatable(a, b), oracle.first_fit_rotatable(a, b).has_value())
            << "width " << w << " q=" << a << "x" << b;
  }
}

/// The shape-aware reservation probe: first_fit under "these busy blocks
/// were released" must agree with a brute-force future-occupancy replay —
/// copy the index, actually release the blocks, query for real.
TEST(OccupancyIndex, AssumingFreeAgreesWithBruteForceReplayOn8x8) {
  const Geometry g(8, 8);
  procsim::des::Xoshiro256SS rng(4242);
  for (int round = 0; round < 50; ++round) {
    MeshState state(g);
    OccupancyIndex idx(g);
    std::vector<SubMesh> live;
    // Random occupancy.
    for (int step = 0; step < 30; ++step) {
      const auto a = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 4));
      const auto b = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 4));
      if (const auto s = idx.first_fit(a, b)) {
        idx.allocate(*s);
        live.push_back(*s);
      }
    }
    if (live.empty()) continue;
    // Random subset of live placements plays the projected releases.
    std::vector<SubMesh> released;
    for (const SubMesh& s : live)
      if (procsim::des::sample_bernoulli(rng, 0.5)) released.push_back(s);

    // Brute force: replay the releases on a copy, then query for real.
    OccupancyIndex future = idx;
    for (const SubMesh& s : released) future.release(s);

    for (int q = 0; q < 12; ++q) {
      const auto a = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 8));
      const auto b = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 8));
      ASSERT_EQ(idx.first_fit_rotatable_assuming_free(a, b, released),
                future.first_fit_rotatable(a, b))
          << "round " << round << " q=" << a << "x" << b;
    }
    // The hypothetical query must not have perturbed the real index.
    ASSERT_EQ(idx.free_count(), state.geometry().nodes() -
                                    [&] {
                                      std::int32_t busy = 0;
                                      for (const SubMesh& s : live) busy += s.area();
                                      return busy;
                                    }());
  }
}

TEST(OccupancyIndex, AssumingFreeWithNoExtrasEqualsPlainFirstFit) {
  const Geometry g(9, 7);
  OccupancyIndex idx(g);
  idx.allocate(SubMesh{0, 0, 4, 3});
  EXPECT_EQ(idx.first_fit_rotatable_assuming_free(3, 3, {}), idx.first_fit(3, 3));
  EXPECT_EQ(idx.first_fit_rotatable_assuming_free(4, 7, {}),
            idx.first_fit_rotatable(4, 7));  // only the rotated 7×4 fits
  // Overlapping / already-free extras are tolerated (the union counts).
  const std::vector<SubMesh> extras{{0, 0, 4, 3}, {0, 0, 2, 2}, {5, 0, 6, 1}};
  EXPECT_EQ(idx.first_fit_rotatable_assuming_free(5, 4, extras)->base(),
            (procsim::mesh::Coord{0, 0}));
}

/// The opt-in oracle mode: allocator-driven churn with cross-checking on
/// must never diverge (and must restore the flag afterwards).
TEST(OccupancyIndex, CrossCheckModeCleanOnAllocatorChurn) {
  struct Guard {
    ~Guard() { OccupancyIndex::set_cross_check(false); }
  } guard;
  OccupancyIndex::set_cross_check(true);
  ASSERT_TRUE(OccupancyIndex::cross_check_enabled());

  procsim::des::Xoshiro256SS rng(7);
  std::vector<SubMesh> released;
  for (const std::string name : {"FirstFit", "BestFit", "GABL"}) {
    const auto allocator =
        procsim::alloc::make_allocator(name, Geometry(12, 10), {.seed = 7});
    const bool contiguous = name != "GABL";
    std::vector<procsim::alloc::Placement> live;
    for (int step = 0; step < 120; ++step) {
      const auto a = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 6));
      const auto b = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 5));
      const procsim::alloc::Request req{a, b, a * b};
      if (contiguous) {
        // The scheduler's probes: now, and once a random subset of the
        // running jobs' blocks were released.
        released.clear();
        for (const procsim::alloc::Placement& p : live)
          if (procsim::des::sample_bernoulli(rng, 0.5))
            released.insert(released.end(), p.blocks.begin(), p.blocks.end());
        const bool now = allocator->can_allocate(req);
        const bool later = allocator->can_allocate_with_free(req, released);
        EXPECT_TRUE(!now || later) << name << " step " << step;
      }
      if (live.empty() || procsim::des::sample_bernoulli(rng, 0.6)) {
        if (auto p = allocator->allocate(req)) live.push_back(std::move(*p));
      } else {
        allocator->release(live.back());
        live.pop_back();
      }
    }
  }
}

TEST(OccupancyIndex, CrossCheckDefaultsOff) {
  EXPECT_FALSE(OccupancyIndex::cross_check_enabled());
}

}  // namespace
