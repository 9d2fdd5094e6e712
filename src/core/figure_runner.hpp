#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace procsim::core {

/// One strategy pair plotted as a series in a paper figure.
struct Series {
  AllocatorSpec allocator;
  sched::SchedSpec scheduler;  ///< Policy converts implicitly; specs welcome
};

/// The six series every main figure of the paper plots:
/// {GABL, Paging(0), MBS} × {FCFS, SSD}.
[[nodiscard]] std::vector<Series> paper_series();

/// One plot a figure grid feeds: the metric it reads from every cell,
/// printed to `out` as a CSV under a two-line comment header.
struct Plot {
  std::string id;        ///< e.g. "fig02"
  std::string metric;    ///< turnaround | service | utilization | latency | blocking
  std::string title;     ///< printed as a comment header
  std::ostream* out{nullptr};
};

/// One figure grid: sweep `loads`, run every series at each point once, and
/// print every plot from those cells. Figures that plot other metrics of the
/// same simulations are plots of one FigureSpec.
struct FigureSpec {
  std::vector<double> loads;
  std::vector<Series> series;
  ExperimentConfig base;   ///< workload/sys template; load+strategy filled per cell
  std::vector<Plot> plots;
};

/// Effort knobs shared by the figure and sweep drivers: --fast, --jobs=N,
/// --reps=N, --seed=N, --threads=N and --obs-probe (parse_run_options).
struct RunOptions {
  std::size_t jobs{0};          ///< 0 = keep spec default
  std::uint64_t min_reps{2};
  std::uint64_t max_reps{3};
  std::uint64_t seed{42};
  std::size_t threads{1};       ///< figure-cell workers; 0 = all hardware threads
  bool fast{false};             ///< shrink jobs/reps for smoke runs
  /// Attach a throwaway fully-enabled obs::Recorder to every replication
  /// (ExperimentConfig::obs_probe) — the CSV must not change by a byte.
  bool obs_probe{false};
};

/// Parses the effort flags above. An unknown flag or a malformed number
/// prints one line naming it to stderr and exits with status 2.
[[nodiscard]] RunOptions parse_run_options(int argc, char** argv);

/// The CLI usage-error convention: one stderr line `prog: msg`, exit 2.
[[noreturn]] void usage_error(const char* prog, const std::string& msg);

/// Strict values for `--name=value` flags, shared by every tool: the text
/// after the `=` of `arg` must be the whole number. Empty, signed,
/// non-numeric, out-of-range or trailing text ("abc", "-1", "0.01x") is a
/// usage_error naming the flag, never a silent 0 or a parsed prefix.
[[nodiscard]] std::uint64_t parse_count_flag(const char* prog, std::string_view arg);
/// Same for a finite value > 0, e.g. an offered load.
[[nodiscard]] double parse_positive_flag(const char* prog, std::string_view arg);

/// The generic experiment grid under run_figure and the sweep drivers: any
/// row axis (loads, mesh sizes, ...) × any column axis (series), one
/// replicated experiment per cell. `cell(r, c)` must be a pure function of
/// its indices — cells run in any order and, with `opts.threads != 1`,
/// concurrently.
struct GridSpec {
  std::string corner;             ///< first header cell, e.g. "load" or "mesh"
  std::vector<std::string> rows;  ///< row labels, printed verbatim
  std::vector<std::string> cols;  ///< column labels, e.g. series labels
  std::function<ExperimentConfig(std::size_t row, std::size_t col)> cell;
};

/// One CSV table of a grid: a key of to_observations() and its stream.
struct GridOutput {
  std::string metric;
  std::ostream* out{nullptr};
};

/// Throws std::logic_error naming `metric` and the known ones unless it is a
/// key of to_observations().
void check_metric(const std::string& metric);

/// Runs every cell of the grid once and prints one CSV table per output
/// (means of its metric; per-cell 95 % half-widths as trailing columns when
/// `with_ci`), streaming each finished row to every output in row order. An
/// unknown metric throws std::logic_error before any cell runs.
///
/// With `opts.threads > 1` (or 0 = all hardware threads) the independent
/// cells are farmed across a thread pool. Every cell starts from the same
/// base `opts.seed` (cells differ by configuration, not by seed) and derives
/// its replication seeds from it deterministically, so every table is
/// byte-identical to the single-threaded run.
void run_grid(const GridSpec& spec, const std::vector<GridOutput>& outputs,
              const RunOptions& opts, bool with_ci = false);

/// Runs the figure grid once and prints every plot: one row per load, one
/// column per series. A thin wrapper that lowers the figure onto run_grid,
/// inheriting its determinism guarantee.
void run_figure(const FigureSpec& spec, const RunOptions& opts, bool with_ci = false);

/// Applies the effort knobs (--jobs, --fast) to one cell configuration —
/// shared by run_figure and the generic sweep drivers.
void apply_effort(ExperimentConfig& cfg, const RunOptions& opts);

/// Sets the offered load on whichever workload family `cfg` uses — the one
/// place that knows stochastic loads live in workload.stochastic.load and
/// trace loads in workload.load.
void set_offered_load(ExperimentConfig& cfg, double load);

}  // namespace procsim::core
