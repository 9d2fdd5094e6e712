#pragma once

#include <cstdint>
#include <vector>

#include "mesh/coord.hpp"

namespace procsim::network {

/// Directed channel identifiers for a W×L mesh or torus.
///
/// Every directed link carries two virtual channels:
///   id = (dir*2 + vc)*N + source_node,           dirs 0..3, vc 0..1
/// followed by injection ports (8N..9N-1) and ejection ports (9N..10N-1).
/// On the mesh only VC0 is ever used. On the torus the second VC implements
/// the classic dateline scheme: a packet starts a dimension on VC0 and
/// switches to VC1 when it crosses that dimension's wrap-around link, which
/// breaks the ring's cyclic channel dependency — without this, wormhole
/// switching on a torus deadlocks (caught by tests/test_network.cpp).
///
/// Injection/ejection are modelled as channels too, so packets from one
/// source serialise naturally and hot destinations contend, as in ProcSimity.
enum class Direction : std::int32_t { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

using ChannelId = std::int32_t;

class ChannelMap {
 public:
  explicit ChannelMap(mesh::Geometry geom, bool torus = false) noexcept
      : geom_(geom), torus_(torus) {}

  [[nodiscard]] std::int32_t channel_count() const noexcept { return 10 * geom_.nodes(); }

  [[nodiscard]] ChannelId link(mesh::NodeId from, Direction dir,
                               std::int32_t vc = 0) const noexcept {
    return (static_cast<std::int32_t>(dir) * 2 + vc) * geom_.nodes() + from;
  }
  [[nodiscard]] ChannelId injection(mesh::NodeId node) const noexcept {
    return 8 * geom_.nodes() + node;
  }
  [[nodiscard]] ChannelId ejection(mesh::NodeId node) const noexcept {
    return 9 * geom_.nodes() + node;
  }

  [[nodiscard]] bool is_injection(ChannelId c) const noexcept {
    return c >= 8 * geom_.nodes() && c < 9 * geom_.nodes();
  }
  [[nodiscard]] bool is_ejection(ChannelId c) const noexcept {
    return c >= 9 * geom_.nodes();
  }

  [[nodiscard]] const mesh::Geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] bool torus() const noexcept { return torus_; }

  /// Neighbour of `n` in direction `dir`; -1 when the mesh edge blocks it.
  [[nodiscard]] mesh::NodeId neighbour(mesh::NodeId n, Direction dir) const noexcept;

  /// XY dimension-ordered route: fills `path` with the full channel path from
  /// src's injection port to dst's ejection port, dateline VCs applied on the
  /// torus. `path` is overwritten and keeps its capacity, so a caller that
  /// routes into the same vector again allocates only for a longer path.
  /// Precondition: src != dst.
  void route(mesh::NodeId src, mesh::NodeId dst, std::vector<ChannelId>& path) const;

  /// Number of links an XY-routed packet traverses (torus: shorter way).
  [[nodiscard]] std::int32_t hop_count(mesh::NodeId src, mesh::NodeId dst) const noexcept;

 private:
  mesh::Geometry geom_;
  bool torus_;
};

}  // namespace procsim::network
