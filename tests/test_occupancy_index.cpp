#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
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
  EXPECT_THROW((void)FreeSubmeshScan(idx.to_mesh_state()).busy_in(SubMesh{0, 0, 8, 5}),
               std::invalid_argument);
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

/// largest_free has one path: the first query at a new occupancy builds the
/// frontier, however narrow its caps, and every later one reads it; after a
/// carved piece (an allocation only) the stale frontier's winner still
/// fits, so the next query needs no pass.
TEST(OccupancyIndex, LargestFreeReusesTheFrontierAcrossCarving) {
  OccupancyIndex idx(Geometry(64, 16));
  const OccupancyIndex::QueryStats& st = idx.query_stats();
  idx.allocate(SubMesh{0, 0, 63, 3});
  EXPECT_EQ(idx.largest_free(2, 2), SubMesh::from_base(Coord{0, 4}, 2, 2));
  EXPECT_EQ(st.frontier_passes, 1u);
  EXPECT_EQ(st.frontier_hits, 0u);
  EXPECT_EQ(idx.largest_free(64, 16), SubMesh::from_base(Coord{0, 4}, 64, 12));
  EXPECT_EQ(st.frontier_passes, 1u);
  EXPECT_EQ(st.frontier_hits, 1u);
  idx.allocate(SubMesh{0, 4, 1, 5});  // a carved piece: the 2×2 winner still fits
  EXPECT_EQ(idx.largest_free(2, 2), SubMesh::from_base(Coord{2, 4}, 2, 2));
  EXPECT_EQ(st.frontier_passes, 1u);
  EXPECT_EQ(st.frontier_hits, 1u);
  EXPECT_EQ(st.frontier_bounds, 1u);
}

/// After a pass, while only allocations follow, the stale frontier bounds
/// every free rectangle from above: its "no" answers fits_rotatable with no
/// scan and no pass, and a largest_free whose stale winner still fits is
/// answered with no pass; a winner that was carved away costs the pass.
TEST(OccupancyIndex, StaleFrontierBoundsAnswersAfterAllocations) {
  OccupancyIndex idx(Geometry(16, 8));
  const OccupancyIndex::QueryStats& st = idx.query_stats();
  const auto oracle = [&idx] { return FreeSubmeshScan(idx.to_mesh_state()); };
  idx.allocate(SubMesh{0, 0, 15, 3});  // free: 16×4 in rows 4-7
  EXPECT_EQ(idx.largest_free(16, 8), SubMesh::from_base(Coord{0, 4}, 16, 4));
  EXPECT_EQ(st.frontier_passes, 1u);

  idx.allocate(SubMesh{0, 4, 3, 7});  // free: 12×4 at (4, 4)
  // H[5] = 4 < 5 in both orientations: false from the bound.
  EXPECT_FALSE(idx.fits_rotatable(5, 5));
  EXPECT_FALSE(oracle().first_fit_rotatable(5, 5).has_value());
  EXPECT_EQ(st.frontier_bounds, 1u);
  EXPECT_EQ(st.first_fit_queries, 0u);
  EXPECT_EQ(st.frontier_passes, 1u);
  // The bound admits 13×2, but that proves nothing: the probe scans.
  EXPECT_FALSE(idx.fits_rotatable(13, 2));
  EXPECT_FALSE(oracle().first_fit_rotatable(13, 2).has_value());
  EXPECT_EQ(st.frontier_bounds, 1u);
  EXPECT_EQ(st.first_fit_queries, 2u);

  // The stale winner 8×4 still fits at (4, 4): no pass.
  const auto piece = idx.largest_free(8, 8);
  EXPECT_EQ(piece, SubMesh::from_base(Coord{4, 4}, 8, 4));
  EXPECT_EQ(piece, oracle().largest_free(8, 8));
  EXPECT_EQ(st.frontier_bounds, 2u);
  EXPECT_EQ(st.frontier_passes, 1u);

  idx.allocate(*piece);  // free: 4×4 at (12, 4); the stale 8×4 is gone
  const auto rest = idx.largest_free(8, 8);
  EXPECT_EQ(rest, SubMesh::from_base(Coord{12, 4}, 4, 4));
  EXPECT_EQ(rest, oracle().largest_free(8, 8));
  EXPECT_EQ(st.frontier_bounds, 2u);
  EXPECT_EQ(st.frontier_passes, 2u);
  EXPECT_EQ(st.frontier_hits, 0u);
  EXPECT_EQ(idx.largest_free(2, 8), oracle().largest_free(2, 8));  // fresh again
  EXPECT_EQ(st.frontier_hits, 1u);
  EXPECT_EQ(st.frontier_passes, 2u);
}

/// release() and clear() free nodes, so each ends the bound: a frontier
/// built before them must not answer for the freed area. With either stamp
/// dropped, the stale 16×4 frontier would deny the 16×8 fit and hand out a
/// 16×4 largest_free.
TEST(OccupancyIndex, ReleaseAndClearEndTheFrontierBound) {
  for (const bool use_clear : {false, true}) {
    OccupancyIndex idx(Geometry(16, 8));
    const SubMesh top{0, 0, 15, 3};
    idx.allocate(top);
    EXPECT_EQ(idx.largest_free(16, 8), SubMesh::from_base(Coord{0, 4}, 16, 4));
    if (use_clear)
      idx.clear();
    else
      idx.release(top);
    EXPECT_TRUE(idx.fits_rotatable(16, 8)) << "clear=" << use_clear;
    EXPECT_EQ(idx.largest_free(16, 8), SubMesh::from_base(Coord{0, 0}, 16, 8))
        << "clear=" << use_clear;
    EXPECT_EQ(idx.query_stats().frontier_bounds, 0u) << "clear=" << use_clear;
  }
}

TEST(OccupancyIndex, AllocateReleaseRoundTripUpdatesCounts) {
  OccupancyIndex idx(Geometry(10, 4));
  const SubMesh s{2, 1, 5, 3};
  idx.allocate(s);
  EXPECT_EQ(idx.free_count(), 40 - 12);
  EXPECT_EQ(FreeSubmeshScan(idx.to_mesh_state()).busy_in(SubMesh{0, 0, 9, 3}), 12);
  EXPECT_TRUE(idx.is_busy(Coord{2, 1}));
  EXPECT_FALSE(FreeSubmeshScan(idx.to_mesh_state()).is_free(s));
  idx.release(s);
  EXPECT_EQ(idx.free_count(), 40);
  EXPECT_TRUE(FreeSubmeshScan(idx.to_mesh_state()).is_free(s));
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
  // The frontier was rebuilt, read from cache and read as a stale bound.
  EXPECT_GT(idx.query_stats().frontier_passes, 0u);
  EXPECT_GT(idx.query_stats().frontier_hits, 0u);
  EXPECT_GT(idx.query_stats().frontier_bounds, 0u);
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
  EXPECT_GT(idx.query_stats().frontier_bounds, 0u);
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

/// Checks the index right after a release (so no stale frontier bounds it):
/// largest_free under full, narrow and area caps builds the frontier in one
/// pass and must equal the oracle's; then every fits_rotatable(a, b) with
/// sides up to one past the longer mesh side reads that frontier and must
/// equal the oracle's answer, taken from its first_fit: an a×b or b×a fits
/// iff b <= T[a] or a <= T[b], where T[w] is the tallest oracle first fit of
/// width w (a fit stays a fit when either side shrinks).
::testing::AssertionResult frontier_agrees_with_oracle(const OccupancyIndex& idx) {
  const Geometry& g = idx.geometry();
  const std::int32_t W = g.width();
  const std::int32_t L = g.length();
  const FreeSubmeshScan oracle(idx.to_mesh_state());
  const std::uint64_t passes = idx.query_stats().frontier_passes;
  const auto describe = [](const std::optional<SubMesh>& s) {
    return s ? s->to_string() : std::string("nullopt");
  };
  constexpr std::int64_t kNoCap = std::numeric_limits<std::int64_t>::max();
  const struct {
    std::int32_t w, l;
    std::int64_t area;
  } caps[] = {{W, L, kNoCap}, {8, L, kNoCap}, {W, L, 300}};
  for (const auto& c : caps) {
    const auto got = idx.largest_free(c.w, c.l, c.area);
    const auto want = oracle.largest_free(c.w, c.l, c.area);
    if (got != want)
      return ::testing::AssertionFailure()
             << "largest_free(" << c.w << ", " << c.l << ", " << c.area
             << "): index " << describe(got) << ", oracle " << describe(want);
  }
  std::vector<std::int32_t> tallest(static_cast<std::size_t>(W) + 1, 0);
  for (std::int32_t a = 1, b = L; a <= W; ++a) {
    while (b > 0 && !oracle.first_fit(a, b)) --b;
    tallest[static_cast<std::size_t>(a)] = b;
  }
  const auto fits = [&](std::int32_t a, std::int32_t b) {
    return a <= W && b <= tallest[static_cast<std::size_t>(a)];
  };
  for (std::int32_t a = 1; a <= std::max(W, L) + 1; ++a)
    for (std::int32_t b = 1; b <= std::max(W, L) + 1; ++b)
      if (const bool want = fits(a, b) || fits(b, a); idx.fits_rotatable(a, b) != want)
        return ::testing::AssertionFailure()
               << "fits_rotatable(" << a << ", " << b << ") = " << !want;
  if (idx.query_stats().frontier_passes != passes + 1)
    return ::testing::AssertionFailure()
           << (idx.query_stats().frontier_passes - passes) << " frontier passes, not 1";
  return ::testing::AssertionSuccess();
}

/// The frontier pass reads a free node's height from the first row of its
/// column's free run and runs its stack only where a free rectangle ends:
/// on the last row and on rows with a free node that is busy in the next
/// row. Hand-built occupancies of a 100×130 mesh (two words per row with a
/// 36-bit tail, three 64-row summary blocks) pin both: a staircase whose
/// rows' free sets only grow downward, so only the last row runs the stack;
/// a rectangle ending mid-mesh; a fully busy row between two free bands; a
/// rectangle ending on the bottom row; columns free for more than 128 rows.
/// Then an allocate and a release of equal area move free nodes without
/// changing the free count, and first_fit (through the row summaries) must
/// see the move.
TEST(OccupancyIndex, FrontierPassOnATallMultiWordMesh) {
  const Geometry g(100, 130);
  OccupancyIndex idx(g);
  const SubMesh all{0, 0, 99, 129};
  const auto occupy_all_but = [&](const std::vector<SubMesh>& free) {
    idx.clear();
    idx.allocate(all);
    for (const SubMesh& s : free) idx.release(s);
  };

  // Row y is free in columns [0, 99y/129]: each row's free set holds the
  // one above, so the only row where a rectangle ends is the last.
  std::vector<SubMesh> staircase;
  for (std::int32_t y = 0; y < 130; ++y)
    staircase.push_back(SubMesh{0, y, y * 99 / 129, y});
  occupy_all_but(staircase);
  EXPECT_TRUE(frontier_agrees_with_oracle(idx)) << "staircase";

  occupy_all_but({
      SubMesh{3, 2, 96, 15},    // band above a fully busy row 16 ...
      SubMesh{40, 17, 99, 40},  // ... and the band below it, into the tail
      SubMesh{10, 45, 79, 70},  // 70×26 ending mid-mesh, across a word and a block edge
      SubMesh{85, 71, 99, 100},
      SubMesh{20, 95, 69, 129},  // 50×35 ending on the bottom row
  });
  EXPECT_TRUE(frontier_agrees_with_oracle(idx)) << "bands";

  occupy_all_but({
      SubMesh{99, 0, 99, 129},  // 130 rows in the tail's last column
      SubMesh{0, 0, 0, 128},    // 129 rows, ending on the next-to-last row
      SubMesh{63, 1, 64, 129},  // 2×129 across the word edge, to the bottom
      SubMesh{5, 60, 30, 70},
  });
  EXPECT_TRUE(frontier_agrees_with_oracle(idx)) << "tall columns";

  // Equal areas: the free count stays, but the free nodes move from the
  // 130-row column into a 10×13 block whose rows held no run of 10.
  ASSERT_FALSE(idx.first_fit(10, 13).has_value());
  const std::int32_t free_count = idx.free_count();
  idx.allocate(SubMesh{99, 0, 99, 129});
  idx.release(SubMesh{30, 30, 39, 42});
  ASSERT_EQ(idx.free_count(), free_count);
  EXPECT_EQ(idx.first_fit(10, 13), SubMesh::from_base(Coord{30, 30}, 10, 13));
  EXPECT_EQ(idx.first_fit(1, 130), std::nullopt);
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

/// The brute force: the index's occupancy with `released` freed for real,
/// searched by the legacy scan.
std::optional<SubMesh> replayed_first_fit(const OccupancyIndex& idx,
                                          const std::vector<SubMesh>& released,
                                          std::int32_t a, std::int32_t b) {
  MeshState future = idx.to_mesh_state();
  for (const SubMesh& s : released) future.release(s);
  return FreeSubmeshScan(future).first_fit_rotatable(a, b);
}

/// The reservation walk's pattern: one shape per walk over growing prefixes
/// of a shuffled release order, so the index ORs in only the new blocks and,
/// after a miss of the same shape, scans only the rows they span. The walks
/// also repeat a failing call, ask the rotated shape, switch shape and
/// return to a shorter list, with real allocate/release/clear between them.
void check_walks_against_replay(const Geometry& g, std::uint64_t seed) {
  procsim::des::Xoshiro256SS rng(seed);
  const auto draw = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, lo, hi));
  };
  OccupancyIndex idx(g);
  std::vector<SubMesh> live;
  int calls = 0;
  const auto ask = [&](const std::vector<SubMesh>& released, std::int32_t a,
                       std::int32_t b) {
    const auto got = idx.first_fit_rotatable_assuming_free(a, b, released);
    EXPECT_EQ(got, replayed_first_fit(idx, released, a, b))
        << g.width() << "x" << g.length() << " call " << calls << " q=" << a << "x" << b
        << " blocks=" << released.size();
    ++calls;
    return got.has_value();
  };
  for (int round = 0; round < 80; ++round) {
    if (round % 20 == 19) {
      idx.clear();
      live.clear();
    }
    for (int step = 0; step < 40; ++step)
      if (const auto s = idx.first_fit(draw(1, 6), draw(1, 4))) {
        idx.allocate(*s);
        live.push_back(*s);
      }
    for (std::size_t i = live.size(); i-- > 0;)
      if (procsim::des::sample_bernoulli(rng, 0.2)) {
        idx.release(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    std::vector<SubMesh> order = live;
    for (std::int32_t i = static_cast<std::int32_t>(order.size()) - 1; i > 0; --i)
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(draw(0, i))]);
    // Two walks at one occupancy, each with its own shape.
    for (int walk = 0; walk < 2; ++walk) {
      std::int32_t a = draw(1, g.width());
      std::int32_t b = draw(1, g.length());
      std::vector<SubMesh> released;
      for (const SubMesh& next : order) {
        released.push_back(next);
        if (ask(released, a, b)) break;
        switch (draw(0, 9)) {
          case 0:
            (void)ask(released, a, b);  // the same failing call again
            break;
          case 1:
            (void)ask(released, b, a);  // the same shape, rotated
            break;
          case 2:
            a = draw(1, g.width());  // a new shape from the next call on
            b = draw(1, g.length());
            break;
          case 3:
            released.resize(static_cast<std::size_t>(
                draw(0, static_cast<std::int64_t>(released.size()) - 1)));
            (void)ask(released, a, b);  // back to a shorter list
            break;
          default:
            break;
        }
      }
    }
  }
  EXPECT_GT(calls, 500);
}

TEST(OccupancyIndex, AssumingFreeWalksAgreeWithBruteForceReplay) {
  check_walks_against_replay(Geometry(8, 8), 99);
  check_walks_against_replay(Geometry(70, 12), 7);  // two words per row, a tail
}

/// Each orientation keeps its run masks between calls: a walk that
/// alternates two shapes at one generation (so each orientation's width
/// changes), extends its list after misses in both orientations, sometimes
/// asks one shape twice in a row (a row-range scan after a miss), and is
/// interrupted by a real allocate and release.
void check_alternating_walks_against_replay(const Geometry& g, std::uint64_t seed) {
  procsim::des::Xoshiro256SS rng(seed);
  const auto draw = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, lo, hi));
  };
  OccupancyIndex idx(g);
  std::vector<SubMesh> live;
  int calls = 0;
  const auto ask = [&](const std::vector<SubMesh>& released, std::int32_t a,
                       std::int32_t b) {
    EXPECT_EQ(idx.first_fit_rotatable_assuming_free(a, b, released),
              replayed_first_fit(idx, released, a, b))
        << g.width() << "x" << g.length() << " call " << calls << " q=" << a << "x" << b
        << " blocks=" << released.size();
    ++calls;
  };
  for (int round = 0; round < 60; ++round) {
    if (round % 15 == 14) {
      idx.clear();
      live.clear();
    }
    for (int step = 0; step < 40; ++step)
      if (const auto s = idx.first_fit(draw(1, 6), draw(1, 4))) {
        idx.allocate(*s);
        live.push_back(*s);
      }
    for (std::size_t i = live.size(); i-- > 0;)
      if (procsim::des::sample_bernoulli(rng, 0.2)) {
        idx.release(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    std::vector<SubMesh> order = live;
    for (std::int32_t i = static_cast<std::int32_t>(order.size()) - 1; i > 0; --i)
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(draw(0, i))]);
    const std::int32_t a1 = draw(2, g.width());
    const std::int32_t b1 = draw(1, std::min(a1 - 1, g.length()));
    const std::int32_t a2 = draw(1, g.width());
    const std::int32_t b2 = draw(1, g.length());
    std::vector<SubMesh> released;
    for (std::size_t k = 0; k < order.size(); ++k) {
      released.push_back(order[k]);
      ask(released, a1, b1);
      if (procsim::des::sample_bernoulli(rng, 0.5)) ask(released, a2, b2);
      if (k == order.size() / 2)
        if (const auto s = idx.first_fit(draw(1, 3), draw(1, 3))) {
          idx.allocate(*s);
          ask(released, a1, b1);
          idx.release(*s);
          ask(released, a2, b2);
        }
    }
  }
  EXPECT_GT(calls, 500);
}

TEST(OccupancyIndex, AssumingFreeKeepsRunMasksPerOrientation) {
  check_alternating_walks_against_replay(Geometry(8, 8), 31);
  check_alternating_walks_against_replay(Geometry(70, 12), 37);  // two words per row
}

TEST(OccupancyIndex, AssumingFreeThrowsBeforeTouchingItsBitmap) {
  // A full 8x8 mesh of four 4x4 quadrants; 8x4 fits once two side by side
  // are back. After a miss, a call throws with a valid new block in its
  // list. Whatever it had freed or remembered would show in the next call:
  // as extra free nodes in a full scan (5x4 on q00 + q01), or as a row-range
  // scan that skips q10's rows (8x4 on q00 + q10 + q11).
  const SubMesh q00{0, 0, 3, 3};
  const SubMesh q10{4, 0, 7, 3};
  const SubMesh q01{0, 4, 3, 7};
  const SubMesh q11{4, 4, 7, 7};
  const SubMesh outside{6, 6, 8, 8};
  struct Call {
    std::int32_t a;
    std::int32_t b;
    std::vector<SubMesh> blocks;
  };
  const std::vector<Call> next_calls{{5, 4, {q00, q01}}, {8, 4, {q00, q10, q11}}};
  for (const bool bad_side : {false, true}) {
    for (const Call& next : next_calls) {
      OccupancyIndex idx(Geometry(8, 8));
      for (const SubMesh& q : {q00, q10, q01, q11}) idx.allocate(q);
      EXPECT_FALSE(idx.first_fit_rotatable_assuming_free(8, 4, {q00}).has_value());
      if (bad_side)
        EXPECT_THROW((void)idx.first_fit_rotatable_assuming_free(0, 4, {q00, q10}),
                     std::invalid_argument);
      else
        EXPECT_THROW(
            (void)idx.first_fit_rotatable_assuming_free(8, 4, {q00, q10, outside}),
            std::out_of_range);
      EXPECT_EQ(idx.first_fit_rotatable_assuming_free(next.a, next.b, next.blocks),
                replayed_first_fit(idx, next.blocks, next.a, next.b))
          << (bad_side ? "bad side" : "out-of-mesh block") << ", then " << next.a << "x"
          << next.b;
    }
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
