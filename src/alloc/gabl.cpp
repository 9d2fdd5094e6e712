#include "alloc/gabl.hpp"

#include <algorithm>

namespace procsim::alloc {
namespace {

/// Largest sub-rectangle of a free w×l rectangle with area <= budget,
/// anchored at the rectangle's base. Maximises the kept area.
[[nodiscard]] mesh::SubMesh trim_to_budget(const mesh::SubMesh& found, std::int64_t budget) {
  if (found.area() <= budget) return found;
  std::int32_t best_w = 1;
  std::int32_t best_l = 1;
  std::int64_t best_area = 0;
  for (std::int32_t w = 1; w <= found.width(); ++w) {
    const std::int32_t l =
        std::min<std::int32_t>(found.length(), static_cast<std::int32_t>(budget / w));
    if (l < 1) break;
    const std::int64_t area = static_cast<std::int64_t>(w) * l;
    if (area > best_area) {
      best_area = area;
      best_w = w;
      best_l = l;
    }
  }
  return mesh::SubMesh::from_base(found.base(), best_w, best_l);
}

}  // namespace

std::optional<Placement> GablAllocator::allocate(const Request& req) {
  validate_request(req, geometry());
  note_attempt(req);
  const std::int64_t target = static_cast<std::int64_t>(req.width) * req.length;
  if (free_processors() < target) return std::nullopt;

  Placement placement;

  // The contiguous fast path tries the request as stated and rotated;
  // first_fit itself rejects sides that exceed the mesh.
  if (auto whole = index().first_fit_rotatable(req.width, req.length)) {
    // Contiguous fast path — but the job still owes `target` processors,
    // which the rotated/clamped footprint may not cover for oversized
    // requests; fall through to carving for the remainder in that case.
    placement.blocks.push_back(*whole);
    occupy(*whole);
  }

  std::int64_t held = 0;
  for (const mesh::SubMesh& blk : placement.blocks) held += blk.area();

  // Carving caps clamp to the mesh (an oversized side can never fit whole).
  if (held < target) note_fallback(req);
  std::int32_t prev_w = std::min(req.width, geometry().width());
  std::int32_t prev_l = std::min(req.length, geometry().length());
  while (held < target) {
    const auto found = index().largest_free(prev_w, prev_l);
    if (!found) {
      // Free count >= target guarantees at least a 1×1 piece exists; the
      // side caps always admit 1×1, so this is unreachable. Roll back.
      for (const mesh::SubMesh& blk : placement.blocks) vacate(blk);
      return std::nullopt;
    }
    const mesh::SubMesh piece = trim_to_budget(*found, target - held);
    placement.blocks.push_back(piece);
    occupy(piece);
    held += piece.area();
    prev_w = piece.width();
    prev_l = piece.length();
  }

  finalize_placement(placement, geometry(), req.processors);
  return placement;
}

bool GablAllocator::can_allocate(const Request& req) const {
  validate_request(req, geometry());
  // Greedy carving succeeds iff enough processors are free, full stop —
  // the defining property of the strategy.
  return free_processors() >= static_cast<std::int64_t>(req.width) * req.length;
}

bool GablAllocator::can_allocate_with_free(
    const Request& req, const std::vector<mesh::SubMesh>& released) const {
  if (released.empty()) return can_allocate(req);
  validate_request(req, geometry());
  // The base's count model, but against GABL's bounding-area guard.
  std::int64_t extra = 0;
  for (const mesh::SubMesh& s : released) extra += s.area();
  return free_processors() + extra >= static_cast<std::int64_t>(req.width) * req.length;
}

void GablAllocator::release(const Placement& placement) {
  for (const mesh::SubMesh& blk : placement.blocks) vacate(blk);
}

}  // namespace procsim::alloc
