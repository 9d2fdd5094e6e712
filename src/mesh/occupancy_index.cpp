#include "mesh/occupancy_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "mesh/free_submesh_scan.hpp"
#include "mesh/mesh_state.hpp"

namespace procsim::mesh {
namespace {

std::atomic<bool> g_cross_check{[] {
  const char* env = std::getenv("PROCSIM_INDEX_CROSS_CHECK");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}()};

/// Mask with bits [b1, b2] of a word set (0 <= b1 <= b2 <= 63).
[[nodiscard]] constexpr std::uint64_t bit_range(int b1, int b2) noexcept {
  const std::uint64_t upto = b2 == 63 ? ~std::uint64_t{0}
                                      : ((std::uint64_t{1} << (b2 + 1)) - 1);
  return upto & ~((std::uint64_t{1} << b1) - 1);
}

/// In-place r &= (r >> t) over a multi-word little-endian bit span. Safe to
/// run ascending: position i only reads words at indices >= i, and reads its
/// own pre-modification value.
void and_shr(std::uint64_t* r, std::size_t words, std::int32_t t) {
  const std::size_t word_off = static_cast<std::size_t>(t) / 64;
  const int bit_off = t % 64;
  for (std::size_t i = 0; i < words; ++i) {
    const std::size_t j = i + word_off;
    std::uint64_t v = j < words ? r[j] >> bit_off : 0;
    if (bit_off != 0 && j + 1 < words) v |= r[j + 1] << (64 - bit_off);
    r[i] &= v;
  }
}

/// Column of the lowest set bit of a row span; caller guarantees one exists.
[[nodiscard]] std::int32_t lowest_bit(const std::uint64_t* r, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i)
    if (r[i] != 0)
      return static_cast<std::int32_t>(i * 64 + static_cast<std::size_t>(
                                                    std::countr_zero(r[i])));
  return -1;  // unreachable by contract
}

/// A largest_free winner: its width and capped length, {0, 0} for none.
struct Winner {
  std::int32_t w{0};
  std::int32_t l{0};
};

/// Winner selection over a feasibility frontier H, reproducing the oracle's
/// (width asc, length asc) scan: for width w the best feasible capped
/// length is l_w = min(H[w], max_l, max_area/w); the oracle's answer is the
/// maximum of w·l_w with the *first* (smallest) w attaining it, because in
/// its scan a later pair only replaces the best on a strictly larger area.
[[nodiscard]] Winner pick_winner(const std::int32_t* H, std::int32_t max_w,
                                 std::int32_t max_l, std::int64_t max_area) {
  std::int64_t best_area = 0;
  Winner best;
  for (std::int32_t w = 1; w <= max_w; ++w) {
    std::int32_t l = H[w];
    if (l == 0) break;  // the frontier is non-increasing: no wider rect exists
    l = std::min(l, max_l);
    if (static_cast<std::int64_t>(w) * l > max_area)
      l = static_cast<std::int32_t>(max_area / w);
    if (l < 1) continue;
    const std::int64_t area = static_cast<std::int64_t>(w) * l;
    if (area > best_area) {
      best_area = area;
      best = Winner{w, l};
    }
  }
  return best;
}

/// A query's answer as the cross-check message prints it.
std::string describe(const std::optional<SubMesh>& s) {
  return s ? s->to_string() : "nullopt";
}
std::string describe(bool fits) { return fits ? "true" : "false"; }

}  // namespace

void OccupancyIndex::set_cross_check(bool enabled) noexcept {
  g_cross_check.store(enabled, std::memory_order_relaxed);
}

bool OccupancyIndex::cross_check_enabled() noexcept {
  return g_cross_check.load(std::memory_order_relaxed);
}

OccupancyIndex::OccupancyIndex(Geometry geom)
    : geom_(geom),
      words_(static_cast<std::size_t>(geom.width() + 63) / 64),
      tail_mask_(geom.width() % 64 == 0
                     ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (geom.width() % 64)) - 1),
      free_(static_cast<std::size_t>(geom.length()) * words_, 0),
      free_count_(geom.nodes()),
      row_gen_(static_cast<std::size_t>(geom.length()), 0) {
  clear();
}

void OccupancyIndex::clear() {
  for (std::int32_t y = 0; y < geom_.length(); ++y) {
    std::uint64_t* r = row(y);
    for (std::size_t i = 0; i < words_; ++i) r[i] = ~std::uint64_t{0};
    r[words_ - 1] = tail_mask_;
    dirty_row(y);
  }
  free_count_ = geom_.nodes();
  lf_bound_gen_ = gen_counter_;
  qstats_ = QueryStats{};
}

bool OccupancyIndex::is_busy(Coord c) const {
  if (!geom_.contains(c)) throw std::out_of_range("OccupancyIndex: node out of range");
  return (row(c.y)[static_cast<std::size_t>(c.x) / 64] &
          (std::uint64_t{1} << (c.x % 64))) == 0;
}

void OccupancyIndex::check_inside(const SubMesh& s) const {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end()))
    throw std::out_of_range("OccupancyIndex: sub-mesh outside mesh");
}

template <typename F>
void OccupancyIndex::for_each_span(std::uint64_t* bits, const SubMesh& s, F f) const {
  const std::size_t w1 = static_cast<std::size_t>(s.x1) / 64;
  const std::size_t w2 = static_cast<std::size_t>(s.x2) / 64;
  for (std::int32_t y = s.y1; y <= s.y2; ++y) {
    std::uint64_t* r = bits + static_cast<std::size_t>(y) * words_;
    for (std::size_t w = w1; w <= w2; ++w)
      f(r[w], bit_range(w == w1 ? s.x1 % 64 : 0, w == w2 ? s.x2 % 64 : 63));
  }
}

void OccupancyIndex::allocate(const SubMesh& s) {
  check_inside(s);
  for (std::int32_t y = s.y1; y <= s.y2; ++y) dirty_row(y);
  for_each_span(free_.data(), s, [](std::uint64_t& word, std::uint64_t m) {
    if ((word & m) != m)
      throw std::logic_error("OccupancyIndex: double allocation of node");
    word &= ~m;
  });
  free_count_ -= s.area();
}

void OccupancyIndex::release(const SubMesh& s) {
  check_inside(s);
  for (std::int32_t y = s.y1; y <= s.y2; ++y) dirty_row(y);
  for_each_span(free_.data(), s, [](std::uint64_t& word, std::uint64_t m) {
    if ((word & m) != 0) throw std::logic_error("OccupancyIndex: releasing a free node");
    word |= m;
  });
  free_count_ += s.area();
  lf_bound_gen_ = gen_counter_;  // freed nodes: no earlier frontier bounds this one
}

void OccupancyIndex::allocate(NodeId n) {
  const Coord c = geom_.coord(n);
  allocate(SubMesh{c.x, c.y, c.x, c.y});
}

void OccupancyIndex::release(NodeId n) {
  const Coord c = geom_.coord(n);
  release(SubMesh{c.x, c.y, c.x, c.y});
}

void OccupancyIndex::free_nodes_into(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(static_cast<std::size_t>(free_count_));
  for (std::int32_t y = 0; y < geom_.length(); ++y) {
    const std::uint64_t* r = row(y);
    const NodeId row_base = y * geom_.width();
    for (std::size_t w = 0; w < words_; ++w)
      for (std::uint64_t bits = r[w]; bits != 0; bits &= bits - 1)
        out.push_back(row_base + static_cast<NodeId>(w * 64) + std::countr_zero(bits));
  }
}

void OccupancyIndex::compute_run_row(const std::uint64_t* bits, std::int32_t y,
                                     std::int32_t a) const {
  // Doubling shift-AND: afterwards, bit x of the row mask is set iff bits
  // x .. x+a-1 of the row are all free.
  const std::uint64_t* src = bits + static_cast<std::size_t>(y) * words_;
  std::uint64_t* r = runs_.data() + static_cast<std::size_t>(y) * words_;
  if (words_ == 1) {
    // One-word row (width <= 64): the same steps in a register. a <= 64,
    // so every shift t <= 32 stays defined.
    std::uint64_t v = *src;
    for (std::int32_t have = 1; have < a;) {
      const std::int32_t t = std::min(have, a - have);
      v &= v >> t;
      have += t;
    }
    *r = v;
    return;
  }
  std::copy(src, src + words_, r);
  std::int32_t have = 1;
  while (have < a) {
    const std::int32_t t = std::min(have, a - have);
    and_shr(r, words_, t);
    have += t;
  }
}

bool OccupancyIndex::window_into_win(std::int32_t y, std::int32_t b) const {
  const std::uint64_t* r0 = runs_.data() + static_cast<std::size_t>(y) * words_;
  bool nonzero = false;
  for (std::size_t i = 0; i < words_; ++i) nonzero |= (win_[i] = r0[i]) != 0;
  for (std::int32_t k = 1; k < b && nonzero; ++k) {
    const std::uint64_t* rk = runs_.data() + static_cast<std::size_t>(y + k) * words_;
    nonzero = false;
    for (std::size_t i = 0; i < words_; ++i) nonzero |= (win_[i] &= rk[i]) != 0;
  }
  return nonzero;
}

void OccupancyIndex::ensure_summaries() const {
  // No occupancy change since the last validation: every row stamp matches.
  if (sum_checked_gen_ == gen_counter_) return;
  const std::int32_t L = geom_.length();
  const std::size_t nblk = (static_cast<std::size_t>(L) + 63) / 64;
  if (row_max_run_.empty()) {
    row_max_run_.assign(static_cast<std::size_t>(L), 0);
    sum_gen_.assign(static_cast<std::size_t>(L), 0);  // 0 never matches (clear() stamps >= 1)
    rows_all_free_.assign(nblk, 0);
    rows_any_free_.assign(nblk, 0);
    blk_max_run_.assign(nblk, 0);
  }
  bool touched = false;
  for (std::int32_t y = 0; y < L; ++y) {
    const std::size_t yi = static_cast<std::size_t>(y);
    if (sum_gen_[yi] == row_gen_[yi]) continue;
    touched = true;
    const std::uint64_t* r = row(y);
    std::uint64_t any = 0;
    bool all = true;
    std::int32_t best = 0;
    std::int32_t run = 0;
    for (std::size_t i = 0; i < words_; ++i) {
      const std::uint64_t v = r[i];
      any |= v;
      all = all && v == (i + 1 == words_ ? tail_mask_ : ~std::uint64_t{0});
      // Longest free run, carried across word boundaries; the tail bits past
      // the width are zero, so runs clip at the mesh edge automatically.
      int pos = 0;
      while (pos < 64) {
        const std::uint64_t rest = v >> pos;
        if (rest & 1) {
          const int ones = std::countr_one(rest);
          run += ones;
          pos += ones;
          if (pos < 64) {
            best = std::max(best, run);
            run = 0;
          }
        } else {
          best = std::max(best, run);
          run = 0;
          pos += rest == 0 ? 64 - pos : std::countr_zero(rest);
        }
      }
    }
    row_max_run_[yi] = std::max(best, run);
    const std::uint64_t bit = std::uint64_t{1} << (y % 64);
    if (all)
      rows_all_free_[yi / 64] |= bit;
    else
      rows_all_free_[yi / 64] &= ~bit;
    if (any != 0)
      rows_any_free_[yi / 64] |= bit;
    else
      rows_any_free_[yi / 64] &= ~bit;
    sum_gen_[yi] = row_gen_[yi];
  }
  if (touched) {
    // Level 2: per-64-row-block max runs. O(L) — cheaper than tracking which
    // blocks went stale, and already dominated by the stamp scan above.
    for (std::size_t blk = 0; blk < nblk; ++blk) {
      std::int32_t m = 0;
      const std::size_t y_end = std::min(static_cast<std::size_t>(L), blk * 64 + 64);
      for (std::size_t y = blk * 64; y < y_end; ++y) m = std::max(m, row_max_run_[y]);
      blk_max_run_[blk] = m;
    }
  }
  sum_checked_gen_ = gen_counter_;
}

std::optional<SubMesh> OccupancyIndex::first_fit_impl(std::int32_t a,
                                                      std::int32_t b) const {
  if (a <= 0 || b <= 0) throw std::invalid_argument("first_fit: non-positive request");
  if (a > geom_.width() || b > geom_.length()) return std::nullopt;
  const std::int32_t L = geom_.length();
  runs_.resize(free_.size());
  win_.resize(words_);
  std::int32_t ready = 0;  // row cursor: a row's run mask is computed once per query

  // Walk rows through the summaries. `viable` counts the
  // consecutive rows (ending at y) holding a width-a run — only windows of b
  // such rows can host a hit, everything else is skipped without touching a
  // run mask; fully-busy 64-row blocks are skipped in one compare, and a
  // window of b all-free rows is answered at column 0 directly.
  ensure_summaries();
  std::int32_t viable = 0;
  std::int32_t allfree = 0;
  for (std::int32_t y = 0; y < L; ++y) {
    if (viable == 0 && (y & 63) == 0) {
      while (y + 64 <= L && blk_max_run_[static_cast<std::size_t>(y) >> 6] < a) y += 64;
      if (y >= L) break;
    }
    if (row_max_run_[static_cast<std::size_t>(y)] < a) {
      viable = 0;
      allfree = 0;
      continue;
    }
    ++viable;
    const bool af = (rows_all_free_[static_cast<std::size_t>(y) / 64] >>
                     (y % 64)) & 1u;
    allfree = af ? allfree + 1 : 0;
    if (viable < b) continue;
    const std::int32_t ys = y - b + 1;
    if (allfree >= b) return SubMesh::from_base(Coord{0, ys}, a, b);
    for (ready = std::max(ready, ys); ready <= y; ++ready)
      compute_run_row(free_.data(), ready, a);
    if (window_into_win(ys, b))
      return SubMesh::from_base(Coord{lowest_bit(win_.data(), words_), ys}, a, b);
  }
  return std::nullopt;
}

std::optional<SubMesh> OccupancyIndex::best_fit_impl(std::int32_t a,
                                                     std::int32_t b) const {
  if (a <= 0 || b <= 0) throw std::invalid_argument("best_fit: non-positive request");
  if (a > geom_.width() || b > geom_.length()) return std::nullopt;
  const std::int32_t W = geom_.width();
  const std::int32_t L = geom_.length();
  runs_.resize(free_.size());
  win_.resize(words_);
  ensure_summaries();

  // Scoring: a candidate's free border is the free-node count of its clipped
  // ring, i.e. free(ring ∪ s) - area(s). bf_win_[x] holds the prefix sum of
  // free nodes in columns [0, x) over the current window of rows [y-1, y+b]
  // (out-of-mesh rows contribute nothing), making each candidate's score an
  // O(1) window difference. The window is the sum of per-row prefix blocks
  // from the generation-stamped cache — rows untouched since the last query
  // (the common churn case) cost two vectorizable adds to enter/leave the
  // window, never a bitmap rescan.
  const std::size_t stride = static_cast<std::size_t>(W) + 1;
  bf_win_.assign(stride, 0);
  std::int32_t cached_y = std::numeric_limits<std::int32_t>::min();
  const auto apply_row = [&](std::int32_t r, std::int32_t sign) {
    if (r < 0 || r >= L) return;
    const std::int32_t* p = ensure_rowpref(r);
    if (sign > 0)
      for (std::size_t x = 0; x < stride; ++x) bf_win_[x] += p[x];
    else
      for (std::size_t x = 0; x < stride; ++x) bf_win_[x] -= p[x];
  };
  const auto set_window = [&](std::int32_t y) {
    if (cached_y != std::numeric_limits<std::int32_t>::min() && y > cached_y &&
        y - cached_y <= b) {
      while (cached_y < y) {
        apply_row(cached_y - 1, -1);
        ++cached_y;
        apply_row(cached_y + b, +1);
      }
    } else if (cached_y != y) {
      std::fill(bf_win_.begin(), bf_win_.end(), 0);
      for (std::int32_t r = y - 1; r <= y + b; ++r) apply_row(r, +1);
      cached_y = y;
    }
  };

  // Candidate windows are pre-filtered through the summaries exactly like
  // first_fit: a window containing a row without a width-a run has an empty
  // mask, so skipping it drops no candidate and saves both the AND and the
  // scoring. best_fit must still visit every viable window — the best score
  // can sit anywhere — so there is no all-free shortcut here.
  std::optional<SubMesh> best;
  std::int32_t best_score = std::numeric_limits<std::int32_t>::max();
  std::int32_t viable = 0;
  std::int32_t ready = 0;  // row cursor: a row's run mask is computed once per query
  for (std::int32_t y = 0; y < L; ++y) {
    if (viable == 0 && (y & 63) == 0) {
      while (y + 64 <= L && blk_max_run_[static_cast<std::size_t>(y) >> 6] < a) y += 64;
      if (y >= L) break;
    }
    if (row_max_run_[static_cast<std::size_t>(y)] < a) {
      viable = 0;
      continue;
    }
    ++viable;
    if (viable < b) continue;
    const std::int32_t ys = y - b + 1;
    for (ready = std::max(ready, ys); ready <= y; ++ready)
      compute_run_row(free_.data(), ready, a);
    if (!window_into_win(ys, b)) continue;
    set_window(ys);
    for (std::size_t i = 0; i < words_; ++i) {
      std::uint64_t v = win_[i];
      while (v != 0) {
        const std::int32_t x = static_cast<std::int32_t>(
            i * 64 + static_cast<std::size_t>(std::countr_zero(v)));
        v &= v - 1;
        const std::int32_t c1 = std::max(x - 1, 0);
        const std::int32_t c2 = std::min(x + a, W - 1);
        const std::int32_t score = bf_win_[static_cast<std::size_t>(c2) + 1] -
                                   bf_win_[static_cast<std::size_t>(c1)] - a * b;
        if (score < best_score) {
          best_score = score;
          best = SubMesh::from_base(Coord{x, ys}, a, b);
        }
      }
    }
  }
  return best;
}

const std::int32_t* OccupancyIndex::ensure_rowpref(std::int32_t y) const {
  const std::size_t stride = static_cast<std::size_t>(geom_.width()) + 1;
  if (bf_rowpref_.empty()) {
    bf_rowpref_.assign(static_cast<std::size_t>(geom_.length()) * stride, 0);
    bf_rowpref_gen_.assign(static_cast<std::size_t>(geom_.length()), 0);
    // Stamp 0 is never valid: clear() dirties every row, so row_gen_ >= 1.
  }
  const std::size_t yi = static_cast<std::size_t>(y);
  std::int32_t* p = bf_rowpref_.data() + yi * stride;
  if (bf_rowpref_gen_[yi] != row_gen_[yi]) {
    const std::uint64_t* r = row(y);
    std::int32_t acc = 0;
    p[0] = 0;
    for (std::int32_t x = 0; x < geom_.width(); ++x) {
      acc += static_cast<std::int32_t>(
          (r[static_cast<std::size_t>(x) / 64] >> (x % 64)) & 1u);
      p[x + 1] = acc;
    }
    bf_rowpref_gen_[yi] = row_gen_[yi];
  }
  return p;
}

void OccupancyIndex::ensure_frontier() const {
  if (lf_frontier_gen_ == gen_counter_ && !lf_frontier_.empty()) return;
  ++qstats_.frontier_passes;
  const std::int32_t W = geom_.width();
  const std::int32_t L = geom_.length();
  lf_frontier_.assign(static_cast<std::size_t>(W) + 2, 0);
  lf_top_.resize(static_cast<std::size_t>(W));
  lf_stack_x_.resize(static_cast<std::size_t>(W) + 1);
  lf_stack_h_.resize(static_cast<std::size_t>(W) + 1);
  std::int32_t* H = lf_frontier_.data();
  std::int32_t* top = lf_top_.data();
  std::int32_t* sx = lf_stack_x_.data();
  std::int32_t* sh = lf_stack_h_.data();

  // One maximal-rectangle sweep. top[x] is the first row of column x's
  // current free run, written only where a run starts (a bit free in this
  // row and busy in the row above; every free bit of row 0 starts one), so
  // it is written before it is read and needs no reset between passes. A
  // free node's height is y + 1 - top[x]; busy runs write nothing. On each
  // row where a free rectangle ends (see below), a monotonic stack
  // enumerates every maximal free rectangle whose bottom edge is that row;
  // each (height h, span s) raises the frontier at s, and the suffix max
  // afterwards turns that into H[w] = tallest free w-wide rectangle for
  // every w. Bits past the width read busy, so spans clip at the edge. A
  // busy cell closes every open rectangle; the rest of its busy run finds
  // the stack empty, so the whole run is one flush.
  const auto flush = [&](std::int32_t& sp, std::int32_t x) {
    while (sp > 0) {
      --sp;
      if (sh[sp] > H[x - sx[sp]]) H[x - sx[sp]] = sh[sp];
    }
  };
  for (std::int32_t y = 0; y < L; ++y) {
    const std::uint64_t* r = row(y);
    std::uint64_t ends = 0;
    for (std::size_t i = 0; i < words_; ++i) {
      const std::uint64_t above = y > 0 ? row(y - 1)[i] : 0;
      const std::uint64_t below = y + 1 < L ? row(y + 1)[i] : 0;
      for (std::uint64_t fresh = r[i] & ~above; fresh != 0; fresh &= fresh - 1)
        top[i * 64 + static_cast<std::size_t>(std::countr_zero(fresh))] = y;
      ends |= r[i] & ~below;
    }
    // The stack runs only on rows where a free rectangle ends: the last row,
    // and rows holding a free node that is busy in the next row. On any
    // other row every free node is free in the next row too, so every
    // rectangle ending here extends one row down over the same span, and
    // the next row the stack runs on records it taller (or inside a wider
    // one). Skipping the row leaves H bit-identical.
    if (ends == 0) continue;
    std::int32_t sp = 0;
    std::int32_t x = 0;
    for (std::size_t i = 0; i < words_; ++i) {
      std::uint64_t bits = r[i];
      const std::int32_t end = x + std::min<std::int32_t>(64, W - x);
      while (x < end) {
        if ((bits & 1u) == 0) {
          // Busy run up to the next free bit; bits past the width are zero,
          // so an empty remainder runs to the end of the word's span.
          flush(sp, x);
          const std::int32_t run = bits == 0 ? end - x : std::countr_zero(bits);
          x += run;
          if (bits != 0) bits >>= run;
          continue;
        }
        const std::int32_t h = y + 1 - top[x];
        std::int32_t start = x;
        while (sp > 0 && sh[sp - 1] >= h) {
          --sp;
          if (sh[sp] > H[x - sx[sp]]) H[x - sx[sp]] = sh[sp];
          start = sx[sp];
        }
        sx[sp] = start;  // everything left on the stack is lower than h
        sh[sp] = h;
        ++sp;
        ++x;
        bits >>= 1;
      }
    }
    flush(sp, W);
  }
  for (std::int32_t w = W - 1; w >= 1; --w) H[w] = std::max(H[w], H[w + 1]);
  lf_frontier_gen_ = gen_counter_;
}

std::optional<SubMesh> OccupancyIndex::largest_free_impl(std::int32_t max_w,
                                                         std::int32_t max_l,
                                                         std::int64_t max_area) const {
  max_w = std::min(max_w, geom_.width());
  max_l = std::min(max_l, geom_.length());
  if (max_w <= 0 || max_l <= 0 || max_area <= 0) return std::nullopt;

  // The base is the first (y, x) hosting the winning width×length — exactly
  // the oracle's inner row-major scan, i.e. a first_fit of that shape.
  if (stale_frontier_bounds()) {
    // Only allocations since the last pass: the stale winner is still the
    // winner if it still fits, and no stale winner means none now (see the
    // header). A winner that was carved away falls through to the pass.
    const Winner win = pick_winner(lf_frontier_.data(), max_w, max_l, max_area);
    if (win.w == 0) {
      ++qstats_.frontier_bounds;
      return std::nullopt;
    }
    if (auto s = first_fit_impl(win.w, win.l)) {
      ++qstats_.frontier_bounds;
      return s;
    }
  }

  // A fresh frontier answers in O(max_w); a stale one costs one
  // maximal-rectangle pass first (see the header).
  if (lf_frontier_gen_ == gen_counter_)
    ++qstats_.frontier_hits;
  else
    ensure_frontier();
  const Winner win = pick_winner(lf_frontier_.data(), max_w, max_l, max_area);
  if (win.w == 0) return std::nullopt;
  // Must succeed: a fresh frontier only reports feasible shapes.
  return first_fit_impl(win.w, win.l);
}

template <typename T, typename Oracle>
void OccupancyIndex::cross_check(const char* query, std::int32_t a, std::int32_t b,
                                 const std::uint64_t* bits, const T& got,
                                 Oracle oracle) const {
  if (!cross_check_enabled()) return;
  const T want = oracle(FreeSubmeshScan(mesh_state_of(bits)));
  if (got != want)
    throw std::logic_error(std::string("OccupancyIndex cross-check: ") + query + "(" +
                           std::to_string(a) + "," + std::to_string(b) +
                           ") diverged from FreeSubmeshScan: index=" + describe(got) +
                           " oracle=" + describe(want));
}

std::optional<SubMesh> OccupancyIndex::first_fit(std::int32_t a, std::int32_t b) const {
  ++qstats_.first_fit_queries;
  const auto got = first_fit_impl(a, b);
  cross_check("first_fit", a, b, free_.data(), got,
              [&](const FreeSubmeshScan& scan) { return scan.first_fit(a, b); });
  return got;
}

std::optional<SubMesh> OccupancyIndex::assumed_first_fit(std::int32_t a, std::int32_t b,
                                                         std::int32_t y_first,
                                                         std::int32_t y_last) const {
  ++qstats_.first_fit_queries;
  std::optional<SubMesh> got;
  if (a <= geom_.width() && b <= geom_.length()) {
    // Run masks are computed as the scan reaches their rows, so a hit in
    // the first rows never touches the rest of the range.
    runs_.resize(free_.size());
    win_.resize(words_);
    y_first = std::max(y_first, 0);
    y_last = std::min(y_last, geom_.length() - b);
    std::int32_t ready = y_first;  // row cursor, as in first_fit_impl
    for (std::int32_t y = y_first; y <= y_last; ++y) {
      for (; ready < y + b; ++ready) compute_run_row(assume_.data(), ready, a);
      if (window_into_win(y, b)) {
        got = SubMesh::from_base(Coord{lowest_bit(win_.data(), words_), y}, a, b);
        break;
      }
    }
  }
  cross_check("first_fit_rotatable_assuming_free", a, b, assume_.data(), got,
              [&](const FreeSubmeshScan& scan) { return scan.first_fit(a, b); });
  return got;
}

std::optional<SubMesh> OccupancyIndex::first_fit_rotatable_assuming_free(
    std::int32_t a, std::int32_t b, const std::vector<SubMesh>& extra_free) const {
  if (a <= 0 || b <= 0) throw std::invalid_argument("first_fit: non-positive request");
  // Keep the bitmap if this call's blocks extend those already OR-ed into it
  // at this occupancy. Every new block is checked before anything is OR-ed
  // or remembered, so a throw leaves the bitmap and its list in step.
  const bool extends = assume_gen_ == gen_counter_ &&
                       extra_free.size() >= assume_blocks_.size() &&
                       std::equal(assume_blocks_.begin(), assume_blocks_.end(),
                                  extra_free.begin());
  const std::size_t first_new = extends ? assume_blocks_.size() : 0;
  for (std::size_t i = first_new; i < extra_free.size(); ++i) check_inside(extra_free[i]);
  if (!extends) {
    assume_ = free_;
    assume_blocks_.clear();
    assume_gen_ = gen_counter_;
  }
  std::int32_t y_lo = geom_.length();  // the rows the new blocks span
  std::int32_t y_hi = -1;
  for (std::size_t i = first_new; i < extra_free.size(); ++i) {
    const SubMesh& s = extra_free[i];
    for_each_span(assume_.data(), s,
                  [](std::uint64_t& word, std::uint64_t m) { word |= m; });
    y_lo = std::min(y_lo, s.y1);
    y_hi = std::max(y_hi, s.y2);
    assume_blocks_.push_back(s);
  }

  // If the previous call found no a×b or b×a on a subset of these free
  // nodes, a fit now covers a newly freed node: a height-h fit's base row
  // lies in [y_lo - h + 1, y_hi], an empty range when nothing new was freed.
  const bool narrowed = extends && (assume_miss_ == std::pair{a, b} ||
                                    assume_miss_ == std::pair{b, a});
  const auto scan = [&](std::int32_t w, std::int32_t h) {
    return narrowed ? assumed_first_fit(w, h, y_lo - h + 1, y_hi)
                    : assumed_first_fit(w, h, 0, geom_.length());
  };
  std::optional<SubMesh> got = scan(a, b);
  if (!got && a != b) got = scan(b, a);
  assume_miss_ = got ? std::pair{0, 0} : std::pair{a, b};
  return got;
}

std::optional<SubMesh> OccupancyIndex::first_fit_rotatable(std::int32_t a,
                                                           std::int32_t b) const {
  if (auto s = first_fit(a, b)) return s;
  if (a != b) return first_fit(b, a);
  return std::nullopt;
}

bool OccupancyIndex::fits_rotatable(std::int32_t a, std::int32_t b) const {
  if (a <= 0 || b <= 0)
    throw std::invalid_argument("fits_rotatable: non-positive request");
  const std::int32_t W = geom_.width();
  const auto frontier_admits = [&] {
    const std::int32_t* H = lf_frontier_.data();
    return (a <= W && H[a] >= b) || (b <= W && H[b] >= a);
  };
  bool got;
  if (stale_frontier_bounds() && !frontier_admits()) {
    // Only allocations since the last pass: that frontier bounds every free
    // rectangle from above, so its "no" is exact.
    ++qstats_.frontier_bounds;
    got = false;
  } else {
    // Ski rental: scan until the scans made at this occupancy cost about
    // what a pass stepping on every free node would, free_count / length
    // scans. A scan skips rows and busy blocks through the summaries (about
    // a step per row, less when it fits early). The pass itself costs less
    // than that (a word operation per row plus a stack step per free node
    // on the rows where a rectangle ends), but the budget stays: a cheaper
    // rent builds the frontier sooner, which costs most on probe-light
    // occupancies, where scans answer nearly every probe, and no benchmark
    // row times those yet (ROADMAP, direction 3).
    if (lf_scan_gen_ != gen_counter_) {
      lf_scan_gen_ = gen_counter_;
      lf_scans_ = 0;
    }
    if (lf_frontier_gen_ != gen_counter_ && lf_scans_ * geom_.length() < free_count_) {
      ++lf_scans_;
      got = first_fit_rotatable(a, b).has_value();
    } else {
      ensure_frontier();
      got = frontier_admits();
    }
  }
  cross_check("fits_rotatable", a, b, free_.data(), got,
              [&](const FreeSubmeshScan& scan) {
                return scan.first_fit_rotatable(a, b).has_value();
              });
  return got;
}

std::optional<SubMesh> OccupancyIndex::best_fit(std::int32_t a, std::int32_t b) const {
  ++qstats_.best_fit_queries;
  const auto got = best_fit_impl(a, b);
  cross_check("best_fit", a, b, free_.data(), got,
              [&](const FreeSubmeshScan& scan) { return scan.best_fit(a, b); });
  return got;
}

std::optional<SubMesh> OccupancyIndex::largest_free(std::int32_t max_w,
                                                    std::int32_t max_l,
                                                    std::int64_t max_area) const {
  const auto got = largest_free_impl(max_w, max_l, max_area);
  cross_check("largest_free", max_w, max_l, free_.data(), got,
              [&](const FreeSubmeshScan& scan) {
                return scan.largest_free(max_w, max_l, max_area);
              });
  return got;
}

std::int32_t OccupancyIndex::max_free_run() const {
  ensure_summaries();
  std::int32_t best = 0;
  for (const std::int32_t r : row_max_run_) best = std::max(best, r);
  return best;
}

MeshState OccupancyIndex::mesh_state_of(const std::uint64_t* bits) const {
  MeshState state(geom_);
  for (std::int32_t y = 0; y < geom_.length(); ++y)
    for (std::int32_t x = 0; x < geom_.width(); ++x)
      if (((bits[static_cast<std::size_t>(y) * words_ +
                 static_cast<std::size_t>(x) / 64] >> (x % 64)) & 1u) == 0)
        state.allocate(geom_.id(Coord{x, y}));
  return state;
}

MeshState OccupancyIndex::to_mesh_state() const { return mesh_state_of(free_.data()); }

}  // namespace procsim::mesh
