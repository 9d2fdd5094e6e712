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

[[noreturn]] void report_divergence(const char* query, std::int32_t a, std::int32_t b,
                                    const std::optional<SubMesh>& got,
                                    const std::optional<SubMesh>& want) {
  throw std::logic_error(
      std::string("OccupancyIndex cross-check: ") + query + "(" + std::to_string(a) +
      "," + std::to_string(b) + ") diverged from FreeSubmeshScan: index=" +
      (got ? got->to_string() : "nullopt") +
      " oracle=" + (want ? want->to_string() : "nullopt"));
}

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

void OccupancyIndex::allocate(const SubMesh& s) {
  check_inside(s);
  const std::size_t w1 = static_cast<std::size_t>(s.x1) / 64;
  const std::size_t w2 = static_cast<std::size_t>(s.x2) / 64;
  for (std::int32_t y = s.y1; y <= s.y2; ++y) {
    std::uint64_t* r = row(y);
    for (std::size_t w = w1; w <= w2; ++w) {
      const std::uint64_t m = bit_range(w == w1 ? s.x1 % 64 : 0,
                                        w == w2 ? s.x2 % 64 : 63);
      if ((r[w] & m) != m)
        throw std::logic_error("OccupancyIndex: double allocation of node");
      r[w] &= ~m;
    }
    dirty_row(y);
  }
  free_count_ -= s.area();
}

void OccupancyIndex::release(const SubMesh& s) {
  check_inside(s);
  const std::size_t w1 = static_cast<std::size_t>(s.x1) / 64;
  const std::size_t w2 = static_cast<std::size_t>(s.x2) / 64;
  for (std::int32_t y = s.y1; y <= s.y2; ++y) {
    std::uint64_t* r = row(y);
    for (std::size_t w = w1; w <= w2; ++w) {
      const std::uint64_t m = bit_range(w == w1 ? s.x1 % 64 : 0,
                                        w == w2 ? s.x2 % 64 : 63);
      if ((r[w] & m) != 0)
        throw std::logic_error("OccupancyIndex: releasing a free node");
      r[w] |= m;
    }
    dirty_row(y);
  }
  free_count_ += s.area();
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

std::int32_t OccupancyIndex::free_in_row_range(std::int32_t y, std::int32_t c1,
                                               std::int32_t c2) const {
  const std::uint64_t* r = row(y);
  const std::size_t w1 = static_cast<std::size_t>(c1) / 64;
  const std::size_t w2 = static_cast<std::size_t>(c2) / 64;
  std::int32_t total = 0;
  for (std::size_t w = w1; w <= w2; ++w) {
    const std::uint64_t m = bit_range(w == w1 ? c1 % 64 : 0, w == w2 ? c2 % 64 : 63);
    total += std::popcount(r[w] & m);
  }
  return total;
}

std::int32_t OccupancyIndex::busy_in(const SubMesh& s) const {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end()))
    throw std::invalid_argument("OccupancyIndex::busy_in: sub-mesh outside mesh");
  std::int32_t free = 0;
  for (std::int32_t y = s.y1; y <= s.y2; ++y) free += free_in_row_range(y, s.x1, s.x2);
  return s.area() - free;
}

bool OccupancyIndex::is_free(const SubMesh& s) const {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end())) return false;
  for (std::int32_t y = s.y1; y <= s.y2; ++y)
    if (free_in_row_range(y, s.x1, s.x2) != s.width()) return false;
  return true;
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

void OccupancyIndex::ensure_run_row(const std::uint64_t* bits, std::int32_t y,
                                    std::int32_t a) const {
  const std::size_t yi = static_cast<std::size_t>(y);
  if (runs_row_epoch_[yi] == runs_epoch_) return;
  compute_run_row(bits, y, a);
  runs_row_epoch_[yi] = runs_epoch_;
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
}

std::optional<SubMesh> OccupancyIndex::first_fit_impl(const std::uint64_t* bits,
                                                      std::int32_t a,
                                                      std::int32_t b) const {
  if (a <= 0 || b <= 0) throw std::invalid_argument("first_fit: non-positive request");
  if (a > geom_.width() || b > geom_.length()) return std::nullopt;
  const std::int32_t L = geom_.length();
  runs_.resize(free_.size());
  runs_row_epoch_.resize(static_cast<std::size_t>(L), 0);
  win_.resize(words_);
  ++runs_epoch_;

  if (bits != free_.data()) {
    // Hypothetical occupancy (first_fit_rotatable_assuming_free): the summaries
    // describe the real bitmap, so fall back to the plain lazy descent. Run
    // masks are computed as the scan reaches their rows — a hit in the first
    // rows never touches the rest of the mesh.
    std::int32_t ready = 0;
    for (std::int32_t y = 0; y + b <= L; ++y) {
      while (ready < y + b) compute_run_row(bits, ready++, a);
      if (window_into_win(y, b))
        return SubMesh::from_base(Coord{lowest_bit(win_.data(), words_), y}, a, b);
    }
    return std::nullopt;
  }

  // Real occupancy: walk rows through the summaries. `viable` counts the
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
    for (std::int32_t r = ys; r <= y; ++r) ensure_run_row(bits, r, a);
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
  runs_row_epoch_.resize(static_cast<std::size_t>(L), 0);
  win_.resize(words_);
  ++runs_epoch_;
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
    for (std::int32_t r = ys; r <= y; ++r) ensure_run_row(free_.data(), r, a);
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
  lf_ht_.assign(static_cast<std::size_t>(W), 0);
  lf_stack_x_.resize(static_cast<std::size_t>(W) + 1);
  lf_stack_h_.resize(static_cast<std::size_t>(W) + 1);
  std::int32_t* H = lf_frontier_.data();
  std::int32_t* ht = lf_ht_.data();
  std::int32_t* sx = lf_stack_x_.data();
  std::int32_t* sh = lf_stack_h_.data();

  // One maximal-rectangle sweep: per-column heights of consecutive free rows
  // ending at the current row, and per row a monotonic stack enumerating
  // every maximal free rectangle whose bottom edge is this row. Each
  // rectangle (height h, span s) raises the frontier at its span; the
  // suffix max afterwards turns that into H[w] = tallest free w-wide
  // rectangle for every w. Heights reach the stack already clipped by the
  // tail mask (bits past the width read busy), so spans clip at the edge.
  // A busy cell zeroes its column and closes every open rectangle; the rest
  // of its busy run finds the stack empty, so the whole run is one flush
  // plus a fill of zero heights.
  const auto flush = [&](std::int32_t& sp, std::int32_t x) {
    while (sp > 0) {
      --sp;
      if (sh[sp] > H[x - sx[sp]]) H[x - sx[sp]] = sh[sp];
    }
  };
  bool ht_zero = true;
  for (std::int32_t y = 0; y < L; ++y) {
    const std::uint64_t* r = row(y);
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < words_; ++i) any |= r[i];
    if (any == 0) {
      // Fully busy row: every height resets; rectangles ending above were
      // already flushed at their own bottom rows.
      if (!ht_zero) {
        std::fill(ht, ht + W, 0);
        ht_zero = true;
      }
      continue;
    }
    ht_zero = false;
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
          std::fill(ht + x, ht + x + run, 0);
          x += run;
          if (bits != 0) bits >>= run;
          continue;
        }
        const std::int32_t h = ht[x] + 1;
        ht[x] = h;
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

  // A fresh frontier answers in O(max_w); a stale one costs one
  // maximal-rectangle pass first (see the header).
  if (lf_frontier_gen_ == gen_counter_)
    ++qstats_.frontier_hits;
  else
    ensure_frontier();

  // Winner selection over the feasibility frontier, reproducing the oracle's
  // (width asc, length asc) scan: for width w the best feasible capped
  // length is l_w = min(H[w], max_l, max_area/w); the oracle's answer is the
  // maximum of w·l_w with the *first* (smallest) w attaining it, because in
  // its scan a later pair only replaces the best on a strictly larger area.
  std::int64_t best_area = 0;
  std::int32_t best_w = 0;
  std::int32_t best_l = 0;
  const std::int32_t* H = lf_frontier_.data();
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
      best_w = w;
      best_l = l;
    }
  }
  if (best_area == 0) return std::nullopt;
  // The base is the first (y, x) hosting the winning width×length — exactly
  // the oracle's inner row-major scan, i.e. a first_fit of that shape (which
  // must succeed: the frontier only reports feasible shapes).
  return first_fit_impl(free_.data(), best_w, best_l);
}

std::optional<SubMesh> OccupancyIndex::first_fit(std::int32_t a, std::int32_t b) const {
  ++qstats_.first_fit_queries;
  const auto got = first_fit_impl(free_.data(), a, b);
  if (cross_check_enabled()) {
    const FreeSubmeshScan oracle(to_mesh_state());
    const auto want = oracle.first_fit(a, b);
    if (got != want) report_divergence("first_fit", a, b, got, want);
  }
  return got;
}

void OccupancyIndex::build_assume(const std::vector<SubMesh>& extra_free) const {
  assume_ = free_;
  for (const SubMesh& s : extra_free) {
    check_inside(s);
    const std::size_t w1 = static_cast<std::size_t>(s.x1) / 64;
    const std::size_t w2 = static_cast<std::size_t>(s.x2) / 64;
    for (std::int32_t y = s.y1; y <= s.y2; ++y) {
      std::uint64_t* r = assume_.data() + static_cast<std::size_t>(y) * words_;
      for (std::size_t w = w1; w <= w2; ++w)
        r[w] |= bit_range(w == w1 ? s.x1 % 64 : 0, w == w2 ? s.x2 % 64 : 63);
    }
  }
}

std::optional<SubMesh> OccupancyIndex::first_fit_on_assume(std::int32_t a,
                                                           std::int32_t b) const {
  ++qstats_.first_fit_queries;
  const auto got = first_fit_impl(assume_.data(), a, b);
  if (cross_check_enabled()) {
    // Oracle on the same hypothetical occupancy, rebuilt per node.
    MeshState state(geom_);
    for (std::int32_t y = 0; y < geom_.length(); ++y)
      for (std::int32_t x = 0; x < geom_.width(); ++x)
        if ((assume_[static_cast<std::size_t>(y) * words_ +
                     static_cast<std::size_t>(x) / 64] &
             (std::uint64_t{1} << (x % 64))) == 0)
          state.allocate(geom_.id(Coord{x, y}));
    const FreeSubmeshScan oracle(state);
    const auto want = oracle.first_fit(a, b);
    if (got != want)
      report_divergence("first_fit_rotatable_assuming_free", a, b, got, want);
  }
  return got;
}

std::optional<SubMesh> OccupancyIndex::first_fit_rotatable_assuming_free(
    std::int32_t a, std::int32_t b, const std::vector<SubMesh>& extra_free) const {
  build_assume(extra_free);
  if (auto s = first_fit_on_assume(a, b)) return s;
  if (a != b) return first_fit_on_assume(b, a);
  return std::nullopt;
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
  // Ski rental: scan until the scans made at this occupancy cost about what
  // one frontier pass would. A scan skips rows and busy blocks through the
  // summaries (about a step per row, less when it fits early); the pass
  // takes about a step per free node, as busy runs go a word at a time.
  if (lf_scan_gen_ != gen_counter_) {
    lf_scan_gen_ = gen_counter_;
    lf_scans_ = 0;
  }
  bool got;
  if (lf_frontier_gen_ != gen_counter_ && lf_scans_ * geom_.length() < free_count_) {
    ++lf_scans_;
    got = first_fit_rotatable(a, b).has_value();
  } else {
    ensure_frontier();
    const std::int32_t W = geom_.width();
    const std::int32_t* H = lf_frontier_.data();
    got = (a <= W && H[a] >= b) || (b <= W && H[b] >= a);
  }
  if (cross_check_enabled()) {
    const bool want =
        FreeSubmeshScan(to_mesh_state()).first_fit_rotatable(a, b).has_value();
    if (got != want)
      throw std::logic_error("OccupancyIndex cross-check: fits_rotatable(" +
                             std::to_string(a) + "," + std::to_string(b) +
                             ") diverged from FreeSubmeshScan: index=" +
                             (got ? "true" : "false") +
                             " oracle=" + (want ? "true" : "false"));
  }
  return got;
}

std::optional<SubMesh> OccupancyIndex::best_fit(std::int32_t a, std::int32_t b) const {
  ++qstats_.best_fit_queries;
  const auto got = best_fit_impl(a, b);
  if (cross_check_enabled()) {
    const FreeSubmeshScan oracle(to_mesh_state());
    const auto want = oracle.best_fit(a, b);
    if (got != want) report_divergence("best_fit", a, b, got, want);
  }
  return got;
}

std::optional<SubMesh> OccupancyIndex::largest_free(std::int32_t max_w,
                                                    std::int32_t max_l,
                                                    std::int64_t max_area) const {
  ++qstats_.largest_free_queries;
  const auto got = largest_free_impl(max_w, max_l, max_area);
  if (cross_check_enabled()) {
    const FreeSubmeshScan oracle(to_mesh_state());
    const auto want = oracle.largest_free(max_w, max_l, max_area);
    if (got != want) report_divergence("largest_free", max_w, max_l, got, want);
  }
  return got;
}

std::int32_t OccupancyIndex::max_free_run() const {
  ensure_summaries();
  std::int32_t best = 0;
  for (const std::int32_t r : row_max_run_) best = std::max(best, r);
  return best;
}

MeshState OccupancyIndex::to_mesh_state() const {
  MeshState state(geom_);
  for (std::int32_t y = 0; y < geom_.length(); ++y)
    for (std::int32_t x = 0; x < geom_.width(); ++x)
      if (is_busy(Coord{x, y})) state.allocate(geom_.id(Coord{x, y}));
  return state;
}

}  // namespace procsim::mesh
