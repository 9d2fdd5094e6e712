#include "alloc/allocator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/recorder.hpp"

namespace procsim::alloc {

void Allocator::note_attempt(const Request& req) const {
  if (rec_ != nullptr) rec_->alloc_attempt(req.width, req.length, req.processors);
}

void Allocator::note_fallback(const Request& req) const {
  if (rec_ != nullptr) rec_->alloc_fallback(req.width, req.length, req.processors);
}

void Allocator::finalize_placement(Placement& placement, const mesh::Geometry& geom,
                                   std::int32_t p) {
  placement.allocated = 0;
  for (const mesh::SubMesh& b : placement.blocks) placement.allocated += b.area();
  if (placement.allocated < p)
    throw std::logic_error("Allocator: placement holds fewer processors than requested");
  // A block row is a run of consecutive ids: write it whole.
  placement.compute_nodes.resize(static_cast<std::size_t>(p));
  mesh::NodeId* out = placement.compute_nodes.data();
  std::int32_t left = p;
  for (const mesh::SubMesh& b : placement.blocks) {
    for (std::int32_t y = b.y1; y <= b.y2 && left > 0; ++y) {
      const std::int32_t n = std::min(b.width(), left);
      std::iota(out, out + n, geom.id(mesh::Coord{b.x1, y}));
      out += n;
      left -= n;
    }
    if (left == 0) break;
  }
}

bool Allocator::can_allocate_with_free(
    const Request& req, const std::vector<mesh::SubMesh>& released) const {
  if (released.empty()) return can_allocate(req);
  validate_request(req, geometry());
  std::int64_t extra = 0;
  for (const mesh::SubMesh& s : released) extra += s.area();
  return free_processors() + extra >= req.processors;
}

void validate_request(const Request& req, const mesh::Geometry& geom) {
  if (req.width <= 0 || req.length <= 0 || req.processors <= 0)
    throw std::invalid_argument("Request: non-positive dimensions");
  if (req.processors > geom.nodes())
    throw std::invalid_argument("Request: more processors than the mesh has");
}

}  // namespace procsim::alloc
