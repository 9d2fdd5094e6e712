#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <stdexcept>

#include "alloc/contiguous.hpp"
#include "alloc/gabl.hpp"
#include "alloc/mbs.hpp"
#include "alloc/paging.hpp"
#include "alloc/random_alloc.hpp"
#include "mesh/free_submesh_scan.hpp"

namespace {

using procsim::alloc::ContiguousAllocator;
using procsim::alloc::ContiguousPolicy;
using procsim::alloc::GablAllocator;
using procsim::alloc::MbsAllocator;
using procsim::alloc::PagingAllocator;
using procsim::alloc::Placement;
using procsim::alloc::RandomAllocator;
using procsim::alloc::Request;
using procsim::mesh::Coord;
using procsim::mesh::Geometry;
using procsim::mesh::SubMesh;

// ------------------------------------------------------------------- Paging

TEST(Paging, Paging0TakesFirstFreeNodesRowMajor) {
  PagingAllocator a(Geometry(4, 4), 0);
  const auto p = a.allocate(Request{2, 3, 5});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->allocated, 5);
  ASSERT_EQ(p->compute_nodes.size(), 5u);
  for (std::int32_t i = 0; i < 5; ++i) EXPECT_EQ(p->compute_nodes[static_cast<std::size_t>(i)], i);
}

TEST(Paging, Paging0HasNoInternalFragmentation) {
  PagingAllocator a(Geometry(16, 22), 0);
  const auto p = a.allocate(Request{6, 6, 35});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->allocated, 35);
  EXPECT_EQ(a.free_processors(), 352 - 35);
}

TEST(Paging, LargerPagesCauseInternalFragmentation) {
  PagingAllocator a(Geometry(16, 16), 1);  // 2×2 pages
  const auto p = a.allocate(Request{3, 3, 9});
  ASSERT_TRUE(p.has_value());
  // 9 processors need ceil(9/4) = 3 pages = 12 allocated.
  EXPECT_EQ(p->allocated, 12);
  EXPECT_EQ(static_cast<std::int32_t>(p->compute_nodes.size()), 9);
  EXPECT_EQ(a.free_processors(), 256 - 12);
}

TEST(Paging, SucceedsWheneverEnoughFreeProcessors) {
  PagingAllocator a(Geometry(4, 4), 0);
  // Fragment: allocate 8, free nothing — then ask for the other 8.
  const auto p1 = a.allocate(Request{4, 2, 8});
  ASSERT_TRUE(p1.has_value());
  const auto p2 = a.allocate(Request{4, 2, 8});
  ASSERT_TRUE(p2.has_value());
  EXPECT_FALSE(a.allocate(Request{1, 1, 1}).has_value());
  a.release(*p1);
  EXPECT_TRUE(a.allocate(Request{2, 2, 4}).has_value());
}

TEST(Paging, ReleaseRestoresPages) {
  PagingAllocator a(Geometry(8, 8), 2);  // one 4×4 page quadrant each
  const auto p = a.allocate(Request{4, 4, 16});
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->blocks.size(), 1u);
  EXPECT_EQ(p->blocks[0], a.pages().page(0));
  EXPECT_EQ(a.free_processors(), 48);
  // The next request skips the busy first page.
  const auto q = a.allocate(Request{4, 4, 16});
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->blocks[0], a.pages().page(1));
  a.release(*p);
  EXPECT_EQ(a.free_processors(), 48);
  // The released page is the first free one again.
  const auto r = a.allocate(Request{4, 4, 16});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->blocks[0], a.pages().page(0));
  a.release(*q);
  a.release(*r);
  EXPECT_EQ(a.free_processors(), 64);
}

TEST(Paging, NameIncludesSizeIndex) {
  PagingAllocator a(Geometry(4, 4), 0);
  EXPECT_EQ(a.name(), "Paging(0)");
  PagingAllocator b(Geometry(8, 8), 2);
  EXPECT_EQ(b.name(), "Paging(2)");
}

// ---------------------------------------------------------------------- MBS

TEST(Mbs, Base4Factorization) {
  // 37 = 2*16 + 1*4 + 1*1 -> digits (lsb first) {1, 1, 2}.
  const auto d = MbsAllocator::base4_factorize(37);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 2);
  EXPECT_THROW((void)MbsAllocator::base4_factorize(0), std::invalid_argument);
}

TEST(Mbs, AllocatesExactlyPProcessors) {
  MbsAllocator a(Geometry(16, 22));
  for (const std::int32_t p : {1, 3, 7, 16, 34, 35, 100, 255, 352}) {
    const auto placement = a.allocate(Request{1, 1, p});
    ASSERT_TRUE(placement.has_value()) << "p=" << p;
    EXPECT_EQ(placement->allocated, p);
    std::int32_t covered = 0;
    for (const SubMesh& b : placement->blocks) covered += b.area();
    EXPECT_EQ(covered, p);
    a.release(*placement);
    EXPECT_EQ(a.free_processors(), 352);
  }
}

TEST(Mbs, PowerOfFourSizesGetOneContiguousSquare) {
  MbsAllocator a(Geometry(16, 16));
  for (const std::int32_t p : {1, 4, 16, 64, 256}) {
    const auto placement = a.allocate(Request{1, 1, p});
    ASSERT_TRUE(placement.has_value());
    EXPECT_EQ(placement->blocks.size(), 1u) << "p=" << p;
    EXPECT_EQ(placement->blocks[0].width(), placement->blocks[0].length());
    a.release(*placement);
  }
}

TEST(Mbs, BreaksRequestsWhenBigBlocksExhausted) {
  MbsAllocator a(Geometry(16, 22));
  const auto big = a.allocate(Request{1, 1, 256});  // consumes the 16×16 root
  ASSERT_TRUE(big.has_value());
  // 64 needs an 8×8, which no longer exists; MBS must still succeed by
  // breaking the request into smaller blocks (96 processors remain).
  const auto p = a.allocate(Request{1, 1, 64});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->allocated, 64);
  EXPECT_GT(p->blocks.size(), 1u);
}

TEST(Mbs, FailsOnlyWhenNotEnoughFree) {
  MbsAllocator a(Geometry(8, 8));
  const auto p1 = a.allocate(Request{1, 1, 60});
  ASSERT_TRUE(p1.has_value());
  EXPECT_FALSE(a.allocate(Request{1, 1, 5}).has_value());
  EXPECT_TRUE(a.allocate(Request{1, 1, 4}).has_value());
}

// --------------------------------------------------------------------- GABL

TEST(Gabl, ContiguousFastPathWhenPossible) {
  GablAllocator a(Geometry(16, 22));
  const auto p = a.allocate(Request{5, 4, 20});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->blocks.size(), 1u);
  EXPECT_EQ(p->blocks[0].area(), 20);
  EXPECT_EQ(a.index().busy_count(), 20);
}

TEST(Gabl, RotatesWhenOnlyRotatedFits) {
  GablAllocator a(Geometry(8, 4));
  const auto p = a.allocate(Request{2, 6, 12});  // fits only as 6×2
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->blocks.size(), 1u);
  EXPECT_EQ(p->blocks[0].width(), 6);
  EXPECT_EQ(p->blocks[0].length(), 2);
}

TEST(Gabl, CarvesWhenNoSuitableSubmesh) {
  GablAllocator a(Geometry(4, 4));
  // Busy anti-diagonal pattern from the paper's Fig. 1: 2×2 contiguous
  // impossible, but 4 processors are free.
  std::vector<Placement> singles;
  // Fill everything, then free the anti-diagonal via targeted allocations:
  // simpler — allocate 3 rows, leaving row 3 free, then take 2 of row 3.
  const auto fill = a.allocate(Request{4, 3, 12});
  ASSERT_TRUE(fill.has_value());
  const auto corner = a.allocate(Request{2, 1, 2});
  ASSERT_TRUE(corner.has_value());
  // Now 2 free nodes remain, not forming a 2×1... they do form one; ask 2×1.
  const auto p = a.allocate(Request{2, 1, 2});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->allocated, 2);
}

TEST(Gabl, AllocatesExactlyAxB) {
  GablAllocator a(Geometry(16, 22));
  // Fragment the mesh so 7×5 cannot fit contiguously.
  const auto wall = a.allocate(Request{16, 18, 288});
  ASSERT_TRUE(wall.has_value());
  // Free: a 16×4 strip = 64 processors; request 7×5 = 35 -> carved pieces.
  const auto p = a.allocate(Request{7, 5, 35});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->allocated, 35);
  EXPECT_GT(p->blocks.size(), 1u);
  // Piece sides never exceed the previous piece's sides (monotone greedy).
  for (std::size_t i = 1; i < p->blocks.size(); ++i) {
    EXPECT_LE(p->blocks[i].width(), p->blocks[i - 1].width());
    EXPECT_LE(p->blocks[i].length(), p->blocks[i - 1].length());
  }
}

TEST(Gabl, FailsIffFreeBelowAxB) {
  GablAllocator a(Geometry(6, 6));
  const auto p1 = a.allocate(Request{5, 6, 30});
  ASSERT_TRUE(p1.has_value());
  EXPECT_FALSE(a.allocate(Request{7, 1, 7}).has_value());  // needs 7, free 6
  EXPECT_TRUE(a.allocate(Request{6, 1, 6}).has_value());   // exactly 6 free
}

TEST(Gabl, IndexTracksAllBlocks) {
  GablAllocator a(Geometry(16, 22));
  const auto p1 = a.allocate(Request{4, 4, 16});
  const auto p2 = a.allocate(Request{3, 3, 9});
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(a.index().busy_count(), p1->allocated + p2->allocated);
  a.release(*p1);
  EXPECT_EQ(a.index().busy_count(), p2->allocated);
  const procsim::mesh::FreeSubmeshScan scan(a.index().to_mesh_state());
  for (const auto& blk : p2->blocks) EXPECT_EQ(scan.busy_in(blk), blk.area());
  a.release(*p2);
  EXPECT_EQ(a.index().busy_count(), 0);
}

TEST(Gabl, ReleasingAPlacementTwiceThrows) {
  GablAllocator a(Geometry(8, 8));
  const auto p = a.allocate(Request{3, 2, 6});
  ASSERT_TRUE(p.has_value());
  a.release(*p);
  EXPECT_THROW(a.release(*p), std::logic_error);
}

// --------------------------------------------------------------- Contiguous

TEST(Contiguous, FirstFitExternalFragmentation) {
  ContiguousAllocator a(Geometry(4, 4), ContiguousPolicy::kFirstFit);
  // External fragmentation (paper's Fig. 1 motif): enough free processors,
  // none of them contiguous enough. Fill the mesh with one slab and four
  // 1×2 columns, then free two non-adjacent columns.
  const auto slab = a.allocate(Request{4, 2, 8});  // rows 0-1
  ASSERT_TRUE(slab.has_value());
  std::vector<Placement> cols;
  for (int i = 0; i < 4; ++i) {
    auto c = a.allocate(Request{1, 2, 2});
    ASSERT_TRUE(c.has_value());
    cols.push_back(std::move(*c));
  }
  EXPECT_EQ(a.free_processors(), 0);
  a.release(cols[0]);  // column x=0
  a.release(cols[2]);  // column x=2
  EXPECT_EQ(a.free_processors(), 4);
  // 4 free processors, but no 2×2 is contiguous: external fragmentation.
  EXPECT_FALSE(a.allocate(Request{2, 2, 4}).has_value());
  // A single column still fits (2×1 succeeds via rotation into 1×2).
  EXPECT_TRUE(a.allocate(Request{1, 2, 2}).has_value());
}

TEST(Contiguous, BestFitPacksTighter) {
  ContiguousAllocator ff(Geometry(8, 8), ContiguousPolicy::kFirstFit);
  ContiguousAllocator bf(Geometry(8, 8), ContiguousPolicy::kBestFit);
  EXPECT_EQ(ff.name(), "FirstFit");
  EXPECT_EQ(bf.name(), "BestFit");
  EXPECT_FALSE(ff.is_noncontiguous());
  // Both allocate a single rectangle of exactly a*b.
  const auto p = bf.allocate(Request{3, 2, 6});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->blocks.size(), 1u);
  EXPECT_EQ(p->allocated, 6);
}

// ------------------------------------------------------------------- Random

TEST(Random, AllocatesDistinctFreeNodes) {
  RandomAllocator a(Geometry(6, 6), 42);
  const auto p = a.allocate(Request{6, 6, 30});
  ASSERT_TRUE(p.has_value());
  std::set<procsim::mesh::NodeId> uniq(p->compute_nodes.begin(), p->compute_nodes.end());
  EXPECT_EQ(uniq.size(), 30u);
  EXPECT_EQ(a.free_processors(), 6);
  EXPECT_FALSE(a.allocate(Request{7, 1, 7}).has_value());
}

}  // namespace
