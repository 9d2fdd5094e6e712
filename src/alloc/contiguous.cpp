#include "alloc/contiguous.hpp"

#include <algorithm>

namespace procsim::alloc {

std::optional<Placement> ContiguousAllocator::allocate(const Request& req) {
  validate_request(req, geometry());
  note_attempt(req);
  const std::int32_t a = std::min(req.width, geometry().width());
  const std::int32_t b = std::min(req.length, geometry().length());

  std::optional<mesh::SubMesh> found;
  if (policy_ == ContiguousPolicy::kFirstFit) {
    found = index().first_fit_rotatable(a, b);
  } else {
    found = index().best_fit(a, b);
    if (!found && a != b) found = index().best_fit(b, a);
  }
  if (!found) return std::nullopt;

  Placement placement;
  placement.blocks.push_back(*found);
  occupy(*found);
  finalize_placement(placement, geometry(), req.processors);
  return placement;
}

bool ContiguousAllocator::can_allocate(const Request& req) const {
  validate_request(req, geometry());
  const std::int32_t a = std::min(req.width, geometry().width());
  const std::int32_t b = std::min(req.length, geometry().length());
  // Feasibility is rotation-symmetric and policy-independent: a best-fit
  // placement exists iff a first-fit one does, so one existence query
  // answers for both policies. A deep probe stream between two occupancy
  // changes shares one frontier pass, a light one pays first-fit scans.
  return index().fits_rotatable(a, b);
}

bool ContiguousAllocator::can_allocate_with_free(
    const Request& req, const std::vector<mesh::SubMesh>& released) const {
  if (released.empty()) return can_allocate(req);  // no bitmap copy needed
  validate_request(req, geometry());
  const std::int32_t a = std::min(req.width, geometry().width());
  const std::int32_t b = std::min(req.length, geometry().length());
  // Same rotation-symmetric feasibility as can_allocate, on the bitmap with
  // the released blocks OR-ed back in (built once for both orientations).
  return index().first_fit_rotatable_assuming_free(a, b, released).has_value();
}

void ContiguousAllocator::release(const Placement& placement) {
  for (const mesh::SubMesh& blk : placement.blocks) vacate(blk);
}

}  // namespace procsim::alloc
