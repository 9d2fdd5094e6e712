#include "network/routing.hpp"

#include <cmath>
#include <stdexcept>

namespace procsim::network {
namespace {

/// Signed steps and direction for one axis, torus-aware (shorter way around,
/// positive direction on ties).
struct AxisPlan {
  std::int32_t steps{0};
  Direction dir{Direction::kEast};
};

[[nodiscard]] AxisPlan plan_axis(std::int32_t from, std::int32_t to, std::int32_t extent,
                                 bool torus, Direction pos, Direction neg) noexcept {
  std::int32_t delta = to - from;
  if (torus) {
    const std::int32_t wrap = delta > 0 ? delta - extent : delta + extent;
    if (std::abs(wrap) < std::abs(delta)) delta = wrap;
  }
  if (delta >= 0) return AxisPlan{delta, pos};
  return AxisPlan{-delta, neg};
}

}  // namespace

mesh::NodeId ChannelMap::neighbour(mesh::NodeId n, Direction dir) const noexcept {
  mesh::Coord c = geom_.coord(n);
  switch (dir) {
    case Direction::kEast: ++c.x; break;
    case Direction::kWest: --c.x; break;
    case Direction::kNorth: ++c.y; break;
    case Direction::kSouth: --c.y; break;
  }
  if (torus_) {
    c.x = (c.x + geom_.width()) % geom_.width();
    c.y = (c.y + geom_.length()) % geom_.length();
    return geom_.id(c);
  }
  return geom_.contains(c) ? geom_.id(c) : -1;
}

void ChannelMap::route(mesh::NodeId src, mesh::NodeId dst,
                       std::vector<ChannelId>& path) const {
  if (src == dst) throw std::invalid_argument("ChannelMap::route: src == dst");
  const mesh::Coord a = geom_.coord(src);
  const mesh::Coord b = geom_.coord(dst);
  const AxisPlan px =
      plan_axis(a.x, b.x, geom_.width(), torus_, Direction::kEast, Direction::kWest);
  const AxisPlan py =
      plan_axis(a.y, b.y, geom_.length(), torus_, Direction::kNorth, Direction::kSouth);

  path.clear();
  path.reserve(static_cast<std::size_t>(px.steps + py.steps) + 2);
  path.push_back(injection(src));

  mesh::NodeId cur = src;
  const auto walk_axis = [&](const AxisPlan& plan) {
    std::int32_t vc = 0;
    for (std::int32_t i = 0; i < plan.steps; ++i) {
      if (torus_) {
        // Dateline: the wrap-around link and everything after it in this
        // dimension use VC1.
        const mesh::Coord c = geom_.coord(cur);
        const bool wraps =
            (plan.dir == Direction::kEast && c.x == geom_.width() - 1) ||
            (plan.dir == Direction::kWest && c.x == 0) ||
            (plan.dir == Direction::kNorth && c.y == geom_.length() - 1) ||
            (plan.dir == Direction::kSouth && c.y == 0);
        if (wraps) vc = 1;
      }
      path.push_back(link(cur, plan.dir, vc));
      cur = neighbour(cur, plan.dir);
    }
  };
  walk_axis(px);
  walk_axis(py);

  path.push_back(ejection(dst));
}

std::int32_t ChannelMap::hop_count(mesh::NodeId src, mesh::NodeId dst) const noexcept {
  const mesh::Coord a = geom_.coord(src);
  const mesh::Coord b = geom_.coord(dst);
  const AxisPlan px =
      plan_axis(a.x, b.x, geom_.width(), torus_, Direction::kEast, Direction::kWest);
  const AxisPlan py =
      plan_axis(a.y, b.y, geom_.length(), torus_, Direction::kNorth, Direction::kSouth);
  return px.steps + py.steps;
}

}  // namespace procsim::network
