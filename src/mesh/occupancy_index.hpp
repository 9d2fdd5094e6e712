#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "mesh/coord.hpp"
#include "mesh/submesh.hpp"

namespace procsim::mesh {

class MeshState;

/// Incrementally maintained occupancy bitmap with bit-parallel free-sub-mesh
/// queries — the scalable successor of FreeSubmeshScan's snapshot rebuild.
///
/// Each mesh row is a chain of 64-bit words holding one *free* bit per node
/// (tail bits past the width stay zero, i.e. read as busy). allocate() and
/// release() touch only the words of the rows they span, so maintaining the
/// index costs O(rows touched) per event instead of an O(W·L) rebuild per
/// query. The rectangle queries then run on whole words: "columns where `a`
/// consecutive free bits start" is a handful of shift-ANDs per row, and a
/// height-`b` window is the AND of `b` row masks.
///
/// On top of the bitmap sit two generation-stamped summary levels (the
/// 512×512 fast path):
///
///  * level 1 — one record per row: longest free run, row-is-all-free and
///    row-has-any-free flags (the flags packed into 64-row bitset words);
///  * level 2 — one record per 64-row block: the max over the block's
///    per-row longest runs.
///
/// first_fit and best_fit walk rows through these summaries: a whole block
/// whose max run is shorter than the request width is skipped in one
/// comparison (fully-busy regions), a window of all-free rows answers
/// first_fit without touching run masks (fully-free regions), and only rows
/// inside a *viable* window — b consecutive rows that each hold a run of
/// `a` — ever compute run masks. Summaries are validated lazily per query:
/// at an occupancy already validated the check returns at once; otherwise
/// it compares every row's generation stamp (one compare per row) and
/// recomputes only the rows whose stamp went stale.
///
/// Every query reproduces FreeSubmeshScan's answer bit for bit — same scan
/// order, same tie-breaking — which the randomized equivalence test and the
/// opt-in cross-check oracle (set_cross_check) both enforce; the paper-scale
/// figure CSVs are byte-identical either way.
///
/// Queries reuse internal scratch buffers (that reuse is part of the point:
/// no per-query vector allocations), so one OccupancyIndex must not be
/// queried from two threads at once. Allocators are per-simulated-machine
/// and single-threaded; parallel replications each own their allocator.
class OccupancyIndex {
 public:
  explicit OccupancyIndex(Geometry geom);

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] std::int32_t free_count() const noexcept { return free_count_; }
  [[nodiscard]] std::int32_t busy_count() const noexcept {
    return geom_.nodes() - free_count_;
  }
  [[nodiscard]] bool is_busy(Coord c) const;

  /// O(rows touched) incremental updates. Preconditions mirror MeshState:
  /// allocate() requires every node of `s` free, release() every node busy;
  /// violations throw std::logic_error, out-of-mesh throws std::out_of_range.
  void allocate(const SubMesh& s);
  void release(const SubMesh& s);
  void allocate(NodeId n);
  void release(NodeId n);

  /// Frees every node (fresh replication).
  void clear();

  // --- Queries, answer-identical to FreeSubmeshScan on the same occupancy ---

  /// Row-major list of free node ids into a caller-owned buffer (cleared
  /// first), so a hot path reuses one allocation across calls; the order is
  /// MeshState::free_nodes()'s.
  void free_nodes_into(std::vector<NodeId>& out) const;

  /// First-fit: lowest base in row-major order hosting a free a×b sub-mesh.
  [[nodiscard]] std::optional<SubMesh> first_fit(std::int32_t a, std::int32_t b) const;

  /// First-fit trying a×b then, if that fails and a != b, the rotated b×a.
  [[nodiscard]] std::optional<SubMesh> first_fit_rotatable(std::int32_t a,
                                                           std::int32_t b) const;

  /// Equal to first_fit_rotatable(a, b).has_value() — "does an a×b or b×a
  /// free sub-mesh exist?" — for a scheduling pass that probes its queue
  /// between two occupancy changes. The first free_count / length probes at
  /// one occupancy are first_fit scans, which stop at the first fit; the
  /// next one builds the feasibility frontier H that largest_free caches per
  /// occupancy generation (see there), and it and every later probe read
  /// (a ≤ W and H[a] ≥ b) or (b ≤ W and H[b] ≥ a) in O(1), so a light probe
  /// stream pays scans and a deep one a single pass. A scan costs about a
  /// step per row. A frontier pass costs about a word operation per row
  /// plus a stack step per free node on the rows where a free rectangle
  /// ends; the budget still prices it at a step per free node, on purpose
  /// (see the comment in fits_rotatable).
  ///
  /// Between passes, while only allocations have happened since the last
  /// one (no release(), no clear()), that stale frontier still bounds every
  /// free rectangle from above: a shape it rules out in both orientations
  /// gets false in O(1), with no scan and no pass. Its "yes" proves nothing,
  /// so such a probe goes on as above. Which path answers shows only in
  /// query_stats(). Non-positive sides throw std::invalid_argument, as
  /// first_fit does.
  [[nodiscard]] bool fits_rotatable(std::int32_t a, std::int32_t b) const;

  /// First-fit trying a×b then b×a on a *hypothetical* occupancy: the
  /// current bitmap with every node of `extra_free` additionally marked free
  /// (blocks may be busy, free or overlapping — the union is what counts).
  /// This is the scheduler's probe-at-instant: "would the job fit once these
  /// running jobs' blocks are released?" answered without touching the real
  /// bitmap. Same scan order and tie-breaking as first_fit_rotatable on a
  /// real occupancy (the shape-aware backfill tests replay the releases for
  /// real and compare).
  ///
  /// A reservation walk asks this with one shape and a growing prefix of the
  /// running set's blocks, so the index keeps the hypothetical bitmap between
  /// calls, with the occupancy generation it was built at and the blocks
  /// OR-ed into it. A call whose `extra_free` extends that list at the same
  /// generation ORs in only the new blocks; any other call rebuilds it (one
  /// copy of the real bitmap, shared by both orientations). If the previous
  /// call asked the same shape (either orientation) and found nothing, a fit
  /// now must cover a newly freed node, so each orientation of height h
  /// scans only base rows [y_lo − h + 1, y_hi] of the new blocks' rows. The
  /// answer is the exact first-fit sub-mesh either way. Non-positive sides
  /// throw std::invalid_argument and an out-of-mesh block std::out_of_range,
  /// both before anything is OR-ed or remembered.
  [[nodiscard]] std::optional<SubMesh> first_fit_rotatable_assuming_free(
      std::int32_t a, std::int32_t b, const std::vector<SubMesh>& extra_free) const;

  /// Best-fit: among all free a×b placements, the one bordered by the fewest
  /// free nodes; ties resolve to the lowest row-major base.
  ///
  /// Candidate scoring reads per-row free-count prefix sums from a
  /// generation-stamped cache maintained in lock-step with allocate/release
  /// (the stamps are bumped there; a stale row recomputes on first use), so
  /// repeat queries under churn reuse every untouched row instead of
  /// rebuilding column counts from the bitmap per query. Candidate windows
  /// are pre-filtered through the row/block summaries: a window containing
  /// a row with no width-a run has an empty mask and is never ANDed or
  /// scored. Answers are bit-identical to the exhaustive path (skipped
  /// windows contribute no candidates; oracle equivalence and cross-check
  /// cover it).
  [[nodiscard]] std::optional<SubMesh> best_fit(std::int32_t a, std::int32_t b) const;

  /// Largest-area free sub-mesh with width <= max_w, length <= max_l and
  /// optionally area <= max_area; ties resolve to the first candidate in
  /// deterministic (width, length, base) scan order (GABL's inner search).
  ///
  /// Algorithm: a maximal-rectangle computation. One pass over the bitmap
  /// keeps the first row of each column's free run and runs a monotonic
  /// stack on every row where a free rectangle ends, recording every
  /// maximal free rectangle into the *feasibility frontier* H — H[w] is the
  /// tallest l such that a free w×l sub-mesh exists, non-increasing in w.
  /// The frontier is cached under the index generation counter: a query on
  /// a changed occupancy pays one pass, which costs about a word operation
  /// per row plus a stack step per free node on the rows where a rectangle
  /// ends, and every query between occupancy changes shares it. Each query
  /// then costs O(max_w) to pick the winner under its caps plus one
  /// first_fit for the winner's base.
  ///
  /// A query on an occupancy that only allocations changed since the last
  /// pass (GABL's carving loop asks once per carved piece, each on the
  /// occupancy its previous piece changed) first picks the winner (w*, l*)
  /// from that stale frontier. Allocations only lower H, so if a w*×l*
  /// sub-mesh still fits, w*'s capped area is unchanged, every narrower
  /// width stays strictly below it and no wider one can pass it: w* is still
  /// the first maximum and its first_fit is the answer, with no pass. No
  /// winner under the stale frontier means none now either. Only when that
  /// first_fit fails does the query pay the pass and answer as above.
  ///
  /// Tie-breaking semantics (bit-identical to FreeSubmeshScan::largest_free,
  /// see README "Allocators & the occupancy index"): maximum capped area
  /// first; among equal areas the smallest width; the base is the first
  /// (y, x) in row-major order hosting that width×length — exactly the
  /// oracle's (width asc, length asc, y asc, x asc) scan order.
  [[nodiscard]] std::optional<SubMesh> largest_free(
      std::int32_t max_w, std::int32_t max_l,
      std::int64_t max_area = std::numeric_limits<std::int64_t>::max()) const;

  /// Longest horizontal run of free nodes over all rows — a cheap
  /// fragmentation gauge (telemetry): validates the row summaries (see the
  /// class comment: a stamp compare per row, recomputing only stale rows)
  /// and takes the max of the per-row runs.
  [[nodiscard]] std::int32_t max_free_run() const;

  /// Observability: how often each query family ran and how often the
  /// frontier had to be rebuilt. Monotone per run (clear() resets); bumping
  /// them is the only side effect queries have on this struct, so attaching
  /// a reader can never change an answer. fits_rotatable has no tally of its
  /// own: it shows up as the scans, frontier passes and bound answers it
  /// runs.
  struct QueryStats {
    /// first_fit scans, one per orientation tried: first_fit, rotatable,
    /// assuming_free and the fits_rotatable probes that scan.
    std::uint64_t first_fit_queries{0};
    std::uint64_t best_fit_queries{0};
    /// Full maximal-rectangle passes, whenever a largest_free or a
    /// fits_rotatable needed a fresh frontier (for largest_free: the stale
    /// one bounded nothing, or its winner no longer fit).
    std::uint64_t frontier_passes{0};
    std::uint64_t frontier_hits{0};       ///< largest_free served by a valid frontier
    /// Answers served by a stale frontier that still bounds the current
    /// one (only allocations since its pass): fits_rotatable's "no" and
    /// largest_free's still-fitting winner or "none".
    std::uint64_t frontier_bounds{0};
    /// Always 0: largest_free has one path. The field stays only while
    /// perfbench/ still reads it.
    std::uint64_t descent_queries{0};
  };
  [[nodiscard]] const QueryStats& query_stats() const noexcept { return qstats_; }

  /// Reconstructs the equivalent per-node MeshState (oracle and diagnostics).
  [[nodiscard]] MeshState to_mesh_state() const;

  /// Debug-mode oracle: when enabled, every fit query also runs the legacy
  /// FreeSubmeshScan on a snapshot of the bitmap it read (the hypothetical
  /// one for first_fit_rotatable_assuming_free) and throws std::logic_error
  /// on any divergence. Process-wide and off by default — it restores the
  /// O(W·L)-per-query cost the index exists to remove. The initial value
  /// honours the PROCSIM_INDEX_CROSS_CHECK environment variable (any value
  /// other than empty or "0" enables it), so CI smokes can run whole sweeps
  /// under the oracle without a code change.
  static void set_cross_check(bool enabled) noexcept;
  [[nodiscard]] static bool cross_check_enabled() noexcept;

 private:
  [[nodiscard]] const std::uint64_t* row(std::int32_t y) const {
    return free_.data() + static_cast<std::size_t>(y) * words_;
  }
  [[nodiscard]] std::uint64_t* row(std::int32_t y) {
    return free_.data() + static_cast<std::size_t>(y) * words_;
  }
  void check_inside(const SubMesh& s) const;
  /// Calls f(word, mask) for every word of bitmap `bits` that `s` covers,
  /// row by row, with the mask of s's columns in that word.
  template <typename F>
  void for_each_span(std::uint64_t* bits, const SubMesh& s, F f) const;
  /// The per-node MeshState of bitmap `bits` (the oracle's input).
  [[nodiscard]] MeshState mesh_state_of(const std::uint64_t* bits) const;
  /// The one oracle hook: when cross-checking is on, runs `oracle` on a
  /// FreeSubmeshScan of `bits`, the bitmap the query read, and throws
  /// std::logic_error if its answer differs from `got`. It checks the
  /// search on `bits`, not how `bits` was built.
  template <typename T, typename Oracle>
  void cross_check(const char* query, std::int32_t a, std::int32_t b,
                   const std::uint64_t* bits, const T& got, Oracle oracle) const;
  /// Fills runs_ row `y` with the mask of columns where a run of `a` free
  /// bits starts, reading the occupancy from `bits` (free_.data() for the
  /// real bitmap, assume_.data() for hypothetical queries; caller sizes
  /// runs_ to free_.size() first). Windows come top to bottom, so each scan
  /// computes a row once, through a forward cursor over the rows.
  void compute_run_row(const std::uint64_t* bits, std::int32_t y, std::int32_t a) const;
  /// win_ = AND of runs_ rows [y, y+b); false (with early exit) if empty.
  [[nodiscard]] bool window_into_win(std::int32_t y, std::int32_t b) const;

  /// First fit on the real bitmap, walking rows through the summaries.
  [[nodiscard]] std::optional<SubMesh> first_fit_impl(std::int32_t a,
                                                      std::int32_t b) const;
  /// First fit on the hypothetical bitmap assume_, which the summaries do
  /// not describe: the plain lazy descent over base rows [y_first, y_last]
  /// (clipped to the mesh), counted in query_stats() and cross-checked
  /// against the whole of assume_.
  [[nodiscard]] std::optional<SubMesh> assumed_first_fit(std::int32_t a, std::int32_t b,
                                                         std::int32_t y_first,
                                                         std::int32_t y_last) const;
  [[nodiscard]] std::optional<SubMesh> best_fit_impl(std::int32_t a,
                                                     std::int32_t b) const;
  [[nodiscard]] std::optional<SubMesh> largest_free_impl(std::int32_t max_w,
                                                         std::int32_t max_l,
                                                         std::int64_t max_area) const;

  /// Validates the two summary levels (row flags + longest runs, per-block
  /// max runs), recomputing only rows whose generation stamp is stale; a
  /// call at the occupancy it last validated returns at once.
  void ensure_summaries() const;

  /// Validates the feasibility frontier shared by largest_free and
  /// fits_rotatable: one maximal-rectangle pass (per-column free-run tops +
  /// a monotonic stack on the rows where a rectangle ends) whenever any
  /// occupancy changed since the last pass.
  void ensure_frontier() const;

  /// True while the cached frontier is stale but bounds the current one
  /// from above: no release() or clear() since its pass, so every H[w] can
  /// only have fallen.
  [[nodiscard]] bool stale_frontier_bounds() const noexcept {
    return lf_frontier_gen_ != gen_counter_ && lf_frontier_gen_ >= lf_bound_gen_;
  }

  /// Marks row `y`'s cached summaries stale (occupancy changed).
  void dirty_row(std::int32_t y) { row_gen_[static_cast<std::size_t>(y)] = ++gen_counter_; }

  /// Validates (recomputing iff the row's stamp is stale) and returns row
  /// `y`'s free-count prefix block: entry x = free nodes in columns [0, x).
  [[nodiscard]] const std::int32_t* ensure_rowpref(std::int32_t y) const;

  Geometry geom_;
  std::size_t words_;             ///< 64-bit words per row
  std::uint64_t tail_mask_;       ///< valid bits of the last word of a row
  std::vector<std::uint64_t> free_;  ///< length() * words_, bit = 1 ⇒ free
  std::int32_t free_count_;

  // Cache generations: row_gen_[y] advances on every occupancy change
  // touching row y; a cached row is valid iff its stamp matches, and a
  // whole-mesh cache (the largest_free frontier) is valid iff it was built
  // at the current gen_counter_, and an upper bound iff it was built at or
  // after lf_bound_gen_.
  std::vector<std::uint64_t> row_gen_;  ///< per-row occupancy generation
  std::uint64_t gen_counter_{0};

  // Query scratch, reused across calls (see class comment on thread-safety).
  mutable std::vector<std::uint64_t> runs_;  ///< per-row run-start masks
  mutable std::vector<std::uint64_t> win_;   ///< height-b window AND
  // The hypothetical bitmap of first_fit_rotatable_assuming_free, kept
  // between calls: the real bitmap at generation assume_gen_ (0 = never
  // built) with assume_blocks_ OR-ed in, and the shape the last call found
  // nothing for ({0, 0} when it found a fit).
  mutable std::vector<std::uint64_t> assume_;
  mutable std::vector<SubMesh> assume_blocks_;
  mutable std::uint64_t assume_gen_{0};
  mutable std::pair<std::int32_t, std::int32_t> assume_miss_{0, 0};

  // Hierarchical occupancy summaries (level 1: rows, level 2: 64-row blocks).
  mutable std::vector<std::uint64_t> sum_gen_;      ///< per-row summary stamps
  mutable std::uint64_t sum_checked_gen_{0};        ///< gen_counter_ when last validated
  mutable std::vector<std::int32_t> row_max_run_;   ///< longest free run per row
  mutable std::vector<std::uint64_t> rows_all_free_;  ///< bit y ⇒ row y all free
  mutable std::vector<std::uint64_t> rows_any_free_;  ///< bit y ⇒ row y has a free node
  mutable std::vector<std::int32_t> blk_max_run_;   ///< max row_max_run_ per block

  // Feasibility frontier (largest_free, fits_rotatable) + maximal-rectangle
  // pass scratch.
  mutable std::vector<std::int32_t> lf_frontier_;  ///< H[w]: tallest free w-wide rect
  mutable std::uint64_t lf_frontier_gen_{0};       ///< gen_counter_ at last pass
  /// gen_counter_ after the last release() or clear(): a frontier built at
  /// or after it bounds the current one (clear() in the constructor makes
  /// it >= 1, so the never-built frontier at generation 0 bounds nothing).
  std::uint64_t lf_bound_gen_{0};
  mutable std::uint64_t lf_scan_gen_{0};           ///< occupancy lf_scans_ counts at
  mutable std::int32_t lf_scans_{0};               ///< fits_rotatable scans there
  mutable std::vector<std::int32_t> lf_top_;       ///< per-column free-run first row
  mutable std::vector<std::int32_t> lf_stack_x_;   ///< monotonic stack: start col
  mutable std::vector<std::int32_t> lf_stack_h_;   ///< monotonic stack: height

  // best_fit scoring cache: per-row within-row free-count prefix sums,
  // valid iff the row's stamp matches row_gen_ (so allocate/release keep it
  // incrementally current), plus the sliding window column sums.
  mutable std::vector<std::int32_t> bf_rowpref_;        ///< L × (W+1) prefix blocks
  mutable std::vector<std::uint64_t> bf_rowpref_gen_;   ///< per-row stamps
  mutable std::vector<std::int32_t> bf_win_;  ///< Σ rowpref over window rows

  mutable QueryStats qstats_;  ///< observability tallies (see query_stats)
};

}  // namespace procsim::mesh
