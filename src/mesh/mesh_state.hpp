#pragma once

#include <cstdint>
#include <vector>

#include "mesh/coord.hpp"
#include "mesh/submesh.hpp"

namespace procsim::mesh {

/// Occupancy bitmap of a mesh, one byte per node: which processors are
/// currently allocated. The obviously-correct oracle that FreeSubmeshScan
/// reads and OccupancyIndex is checked against (OccupancyIndex::to_mesh_state);
/// the allocators themselves record occupancy in the index only.
class MeshState {
 public:
  explicit MeshState(Geometry geom)
      : geom_(geom),
        busy_(static_cast<std::size_t>(geom.nodes()), 0),
        free_(geom.nodes()) {}

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }

  [[nodiscard]] bool is_busy(NodeId n) const { return busy_[checked(n)] != 0; }
  [[nodiscard]] bool is_busy(Coord c) const { return is_busy(geom_.id(c)); }

  [[nodiscard]] std::int32_t free_count() const noexcept { return free_; }
  [[nodiscard]] std::int32_t busy_count() const noexcept { return geom_.nodes() - free_; }

  /// Marks a single node allocated. Precondition: currently free.
  void allocate(NodeId n);
  /// Marks a single node free. Precondition: currently busy.
  void release(NodeId n);

  /// Marks all nodes of `s` allocated. Precondition: all free.
  void allocate(const SubMesh& s);
  /// Marks all nodes of `s` free. Precondition: all busy.
  void release(const SubMesh& s);

  /// True if every node of `s` is free (s must lie inside the mesh).
  [[nodiscard]] bool all_free(const SubMesh& s) const;

  /// Frees every node (fresh replication).
  void clear();

  /// Row-major list of free node ids (the oracle of
  /// OccupancyIndex::free_nodes_into, whose order Random's draws rely on).
  [[nodiscard]] std::vector<NodeId> free_nodes() const;

 private:
  [[nodiscard]] std::size_t checked(NodeId n) const;

  Geometry geom_;
  std::vector<std::uint8_t> busy_;
  std::int32_t free_;
};

}  // namespace procsim::mesh
