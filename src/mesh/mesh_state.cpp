#include "mesh/mesh_state.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace procsim::mesh {

std::size_t MeshState::checked(NodeId n) const {
  if (n < 0 || n >= geom_.nodes()) throw std::out_of_range("MeshState: node id out of range");
  return static_cast<std::size_t>(n);
}

void MeshState::allocate(NodeId n) {
  const std::size_t i = checked(n);
  if (busy_[i]) throw std::logic_error("MeshState: double allocation of node");
  busy_[i] = 1;
  --free_;
}

void MeshState::release(NodeId n) {
  const std::size_t i = checked(n);
  if (!busy_[i]) throw std::logic_error("MeshState: releasing a free node");
  busy_[i] = 0;
  ++free_;
}

// The sub-mesh variants work a contiguous row span at a time (node ids are
// row-major), replacing the per-node id arithmetic and bounds re-checks with
// one memchr precondition scan and one fill per row — at 512 columns that is
// 512 bytes of straight-line memory traffic instead of 512 call-and-check
// iterations, and the per-event cost that used to show beside the allocator
// queries in the 512×512 profile.

void MeshState::allocate(const SubMesh& s) {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end()))
    throw std::out_of_range("MeshState: sub-mesh outside mesh");
  const std::size_t w = static_cast<std::size_t>(s.width());
  for (std::int32_t y = s.y1; y <= s.y2; ++y) {
    std::uint8_t* r = busy_.data() + static_cast<std::size_t>(geom_.id(Coord{s.x1, y}));
    if (std::memchr(r, 1, w) != nullptr)
      throw std::logic_error("MeshState: double allocation of node");
    std::fill(r, r + w, std::uint8_t{1});
  }
  free_ -= s.area();
}

void MeshState::release(const SubMesh& s) {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end()))
    throw std::out_of_range("MeshState: sub-mesh outside mesh");
  const std::size_t w = static_cast<std::size_t>(s.width());
  for (std::int32_t y = s.y1; y <= s.y2; ++y) {
    std::uint8_t* r = busy_.data() + static_cast<std::size_t>(geom_.id(Coord{s.x1, y}));
    if (std::memchr(r, 0, w) != nullptr)
      throw std::logic_error("MeshState: releasing a free node");
    std::fill(r, r + w, std::uint8_t{0});
  }
  free_ += s.area();
}

bool MeshState::all_free(const SubMesh& s) const {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end())) return false;
  const std::size_t w = static_cast<std::size_t>(s.width());
  for (std::int32_t y = s.y1; y <= s.y2; ++y) {
    const std::uint8_t* r =
        busy_.data() + static_cast<std::size_t>(geom_.id(Coord{s.x1, y}));
    if (std::memchr(r, 1, w) != nullptr) return false;
  }
  return true;
}

void MeshState::clear() {
  std::fill(busy_.begin(), busy_.end(), std::uint8_t{0});
  free_ = geom_.nodes();
}

std::vector<NodeId> MeshState::free_nodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(free_));
  for (NodeId n = 0; n < geom_.nodes(); ++n)
    if (!busy_[static_cast<std::size_t>(n)]) out.push_back(n);
  return out;
}

}  // namespace procsim::mesh
