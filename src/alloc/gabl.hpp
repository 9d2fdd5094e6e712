#pragma once

#include <vector>

#include "alloc/allocator.hpp"

namespace procsim::alloc {

/// Greedy Available Busy List strategy (Bani-Mohammad et al., SIMPAT 2007).
///
/// For a request S(a, b):
///  1. If a suitable free a×b (or rotated b×a) sub-mesh exists, allocate it
///     whole — the job runs contiguously.
///  2. Otherwise, provided at least a*b processors are free, greedily carve:
///     allocate the largest free sub-mesh fitting in (a, b), then repeatedly
///     the largest free sub-mesh whose sides do not exceed the previous
///     piece's sides, trimmed so the running total never exceeds a*b, until
///     exactly a*b processors are held.
/// Allocation therefore succeeds iff free >= a*b, while keeping a high
/// degree of contiguity (few large pieces), which is what cuts message
/// distances and contention relative to Paging and MBS.
///
/// The published algorithm keeps the allocated pieces in a busy list; here
/// the allocator's OccupancyIndex is that record (every query reads it), and
/// a placement's own blocks say what release() returns.
class GablAllocator final : public Allocator {
 public:
  explicit GablAllocator(mesh::Geometry geom) : Allocator(geom) {}

  [[nodiscard]] std::optional<Placement> allocate(const Request& req) override;
  [[nodiscard]] bool can_allocate(const Request& req) const override;
  /// Count model against GABL's bounding-area (w×l) guard.
  [[nodiscard]] bool can_allocate_with_free(
      const Request& req, const std::vector<mesh::SubMesh>& released) const override;
  void release(const Placement& placement) override;
  [[nodiscard]] std::string name() const override { return "GABL"; }
  [[nodiscard]] bool is_noncontiguous() const override { return true; }
};

}  // namespace procsim::alloc
