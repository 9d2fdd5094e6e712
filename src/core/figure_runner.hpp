#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
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

/// Declarative description of one figure: sweep `loads`, run every series at
/// each point, report `metric` (a key of to_observations()).
struct FigureSpec {
  std::string id;          ///< e.g. "fig02"
  std::string title;       ///< printed as a comment header
  std::string metric;      ///< turnaround | service | utilization | latency | blocking
  std::vector<double> loads;
  std::vector<Series> series;
  ExperimentConfig base;   ///< workload/sys template; load+strategy filled per cell
};

/// Effort knobs shared by all figure benches (see bench/README note in each
/// binary: --fast, --jobs=N, --reps=N, --seed=N, --threads=N).
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

/// The generic experiment grid under run_figure and the sweep drivers: any
/// row axis (loads, mesh sizes, ...) × any column axis (series), one
/// replicated experiment per cell, CSV rows streamed in order. `cell(r, c)`
/// must be a pure function of its indices — cells run in any order and, with
/// `opts.threads != 1`, concurrently.
struct GridSpec {
  std::string corner;             ///< first header cell, e.g. "load" or "mesh"
  std::vector<std::string> rows;  ///< row labels, printed verbatim
  std::vector<std::string> cols;  ///< column labels, e.g. series labels
  std::string metric;             ///< key of to_observations()
  std::function<ExperimentConfig(std::size_t row, std::size_t col)> cell;
};

/// Runs every cell of the grid and prints the CSV table (means of the chosen
/// metric; per-cell 95 % half-widths as trailing columns when `with_ci`).
///
/// With `opts.threads > 1` (or 0 = all hardware threads) the independent
/// cells are farmed across a thread pool. Every cell starts from the same
/// base `opts.seed` (cells differ by configuration, not by seed) and derives
/// its replication seeds from it deterministically, so the CSV is
/// byte-identical to the single-threaded run.
void run_grid(const GridSpec& spec, const RunOptions& opts, std::ostream& out,
              bool with_ci = false);

/// Runs the sweep and prints a CSV table: one row per load, one column per
/// series (the exact series the paper's figure plots). A thin wrapper that
/// lowers the figure onto run_grid, inheriting its determinism guarantee.
void run_figure(const FigureSpec& spec, const RunOptions& opts, std::ostream& out,
                bool with_ci = false);

/// Applies the effort knobs (--jobs, --fast) to one cell configuration —
/// shared by run_figure and the generic sweep drivers.
void apply_effort(ExperimentConfig& cfg, const RunOptions& opts);

/// Sets the offered load on whichever workload family `cfg` uses — the one
/// place that knows stochastic loads live in workload.stochastic.load and
/// trace loads in workload.load.
void set_offered_load(ExperimentConfig& cfg, double load);

}  // namespace procsim::core
