#include "core/figure_runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <iostream>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace procsim::core {

std::vector<Series> paper_series() {
  std::vector<Series> out;
  const AllocatorSpec gabl{"GABL"};
  const AllocatorSpec paging0{"Paging(0)"};
  const AllocatorSpec mbs{"MBS"};
  for (const auto policy : {sched::Policy::kFcfs, sched::Policy::kSsd}) {
    out.push_back(Series{gabl, policy});
    out.push_back(Series{paging0, policy});
    out.push_back(Series{mbs, policy});
  }
  return out;
}

// A mistyped flag must not run a whole sweep on defaults.
void usage_error(const char* prog, const std::string& msg) {
  std::cerr << prog << ": " << msg << "\n";
  std::exit(2);
}

namespace {

/// Parses all of the text after the `=` of `arg` with util::parse_number; a
/// malformed number or a value `valid` refuses is a usage_error naming the
/// flag and `expected`.
template <typename T, typename Valid>
T parse_flag_value(const char* prog, std::string_view arg, const char* expected,
                   Valid valid) {
  const std::size_t eq = arg.find('=');
  const std::string_view text = arg.substr(eq + 1);
  const std::optional<T> value = util::parse_number<T>(text);
  if (!value || !valid(*value))
    usage_error(prog, "bad value '" + std::string(text) + "' for " +
                          std::string(arg.substr(0, eq)) + " (expected " + expected + ")");
  return *value;
}

}  // namespace

std::uint64_t parse_count_flag(const char* prog, std::string_view arg) {
  // Unsigned parsing rejects a sign, so "-1" never wraps to a huge count
  // and "" never reads as 0 (which --threads would take as "all threads").
  return parse_flag_value<std::uint64_t>(prog, arg, "a non-negative integer",
                                         [](std::uint64_t) { return true; });
}

double parse_positive_flag(const char* prog, std::string_view arg) {
  return parse_flag_value<double>(prog, arg, "a finite number > 0",
                                  [](double v) { return v > 0; });
}

RunOptions parse_run_options(int argc, char** argv) {
  RunOptions opts;
  const char* prog = argc > 0 ? argv[0] : "procsim";
  if (const char* slash = std::strrchr(prog, '/')) prog = slash + 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opts.fast = true;
    } else if (arg.starts_with("--jobs=")) {
      opts.jobs = static_cast<std::size_t>(parse_count_flag(prog, arg));
    } else if (arg.starts_with("--reps=")) {
      opts.max_reps = parse_count_flag(prog, arg);
      if (opts.min_reps > opts.max_reps) opts.min_reps = opts.max_reps;
    } else if (arg.starts_with("--seed=")) {
      opts.seed = parse_count_flag(prog, arg);
    } else if (arg.starts_with("--threads=")) {
      opts.threads = static_cast<std::size_t>(parse_count_flag(prog, arg));
    } else if (arg == "--obs-probe") {
      opts.obs_probe = true;
    } else {
      usage_error(prog, "unknown option " + std::string(arg));
    }
  }
  if (opts.fast) {
    opts.min_reps = 1;
    opts.max_reps = 1;
  }
  // Zero replications would leave every metric empty and abort the figure
  // with a confusing "unknown metric" error; one replication is the floor.
  if (opts.max_reps == 0) opts.max_reps = 1;
  if (opts.min_reps == 0) opts.min_reps = 1;
  return opts;
}

void apply_effort(ExperimentConfig& cfg, const RunOptions& opts) {
  cfg.obs_probe = opts.obs_probe;
  if (!cfg.workload.source_spec.empty()) {
    // Registry-spec workloads: job_count is the stream-length override the
    // source registry consumes (spec-pinned keys still win).
    if (opts.jobs) {
      cfg.workload.job_count = opts.jobs;
      cfg.sys.target_completions = opts.jobs;
    }
    if (opts.fast) {
      cfg.workload.job_count =
          cfg.workload.job_count ? std::min<std::size_t>(cfg.workload.job_count, 200) : 200;
      cfg.sys.target_completions =
          std::min<std::size_t>(cfg.sys.target_completions, 200);
    }
    return;
  }
  if (cfg.workload.kind == WorkloadKind::kStochastic) {
    if (opts.jobs) {
      cfg.workload.job_count = opts.jobs;
      cfg.sys.target_completions = opts.jobs;
    }
    if (opts.fast) {
      cfg.workload.job_count = std::min<std::size_t>(cfg.workload.job_count, 200);
      cfg.sys.target_completions =
          std::min<std::size_t>(cfg.sys.target_completions, 200);
    }
  } else {
    if (opts.jobs) {
      cfg.workload.replay.prefix = opts.jobs;
      cfg.sys.target_completions = opts.jobs;
    }
    if (opts.fast) {
      cfg.workload.replay.prefix = std::min<std::size_t>(
          cfg.workload.replay.prefix ? cfg.workload.replay.prefix : 10658, 200);
      cfg.sys.target_completions =
          std::min<std::size_t>(cfg.sys.target_completions, 200);
    }
  }
}

void set_offered_load(ExperimentConfig& cfg, double load) {
  if (!cfg.workload.source_spec.empty())
    cfg.workload.load = load;  // registry override; ignored by saturation
  else if (cfg.workload.kind == WorkloadKind::kStochastic)
    cfg.workload.stochastic.load = load;
  else
    cfg.workload.load = load;
}

void check_metric(const std::string& metric) {
  const std::vector<std::string> metrics = known_metrics();
  if (std::find(metrics.begin(), metrics.end(), metric) != metrics.end()) return;
  throw std::logic_error("unknown metric '" + metric +
                         "' (known: " + util::join(metrics) + ")");
}

void run_grid(const GridSpec& spec, const std::vector<GridOutput>& outputs,
              const RunOptions& opts, bool with_ci) {
  for (const GridOutput& o : outputs) check_metric(o.metric);

  stats::ReplicationPolicy policy;
  policy.min_replications = opts.min_reps;
  policy.max_replications = opts.max_reps;

  for (const GridOutput& o : outputs) {
    std::ostream& out = *o.out;
    out << spec.corner;
    for (const std::string& col : spec.cols) out << "," << col;
    if (with_ci)
      for (const std::string& col : spec.cols) out << ",ci:" << col;
    out << "\n";
  }

  // Every cell is an independent replicated experiment whose randomness is a
  // pure function of opts.seed, so cells can run in any order — and
  // concurrently — without changing a single output byte. Compute them all
  // into an index-addressed grid per output, then print rows in order.
  const std::size_t n_cols = spec.cols.size();
  const std::size_t n_cells = spec.rows.size() * n_cols;
  std::vector<stats::Interval> grid(outputs.size() * n_cells);

  const auto run_cell = [&](std::size_t idx) {
    ExperimentConfig cfg = spec.cell(idx / n_cols, idx % n_cols);
    cfg.seed = opts.seed;
    const AggregateResult res = run_replicated(cfg, policy);
    for (std::size_t k = 0; k < outputs.size(); ++k)
      grid[k * n_cells + idx] = res.metrics.at(outputs[k].metric);
  };

  const auto print_row = [&](std::size_t ri) {
    for (std::size_t k = 0; k < outputs.size(); ++k) {
      std::ostream& out = *outputs[k].out;
      const std::span row(grid.data() + k * n_cells + ri * n_cols, n_cols);
      out << spec.rows[ri];
      for (const stats::Interval& cell : row) out << "," << cell.mean;
      if (with_ci)
        for (const stats::Interval& cell : row) out << "," << cell.half_width;
      out << "\n";
      out.flush();  // stream each row: long sweeps show progress / survive ^C
    }
  };

  const std::size_t workers = std::min(util::resolve_threads(opts.threads), n_cells);
  if (workers > 1 && n_cells > 1) {
    // Cells parallelise; run_replicated runs a cell's replications serially.
    util::ThreadPool pool(workers);
    // Submit every cell up front so workers are never idle at row
    // boundaries, but print each row as soon as *its* cells are done —
    // streaming output in row order, still byte-identical to serial.
    std::vector<std::future<void>> done;
    done.reserve(n_cells);
    for (std::size_t idx = 0; idx < n_cells; ++idx)
      done.push_back(pool.submit([&run_cell, idx] { run_cell(idx); }));
    // On error, keep draining every future: workers must not outlive the
    // locals their queued tasks reference.
    std::exception_ptr first_error;
    for (std::size_t ri = 0; ri < spec.rows.size(); ++ri) {
      for (std::size_t ci = 0; ci < n_cols; ++ci) {
        try {
          done[ri * n_cols + ci].get();
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (!first_error) print_row(ri);
    }
    if (first_error) std::rethrow_exception(first_error);
  } else {
    for (std::size_t ri = 0; ri < spec.rows.size(); ++ri) {
      for (std::size_t ci = 0; ci < n_cols; ++ci) run_cell(ri * n_cols + ci);
      print_row(ri);
    }
  }
}

void run_figure(const FigureSpec& spec, const RunOptions& opts, bool with_ci) {
  std::vector<GridOutput> outputs;
  for (const Plot& plot : spec.plots) {
    std::ostream& out = *plot.out;
    out << "# " << plot.id << ": " << plot.title << "\n";
    out << "# metric=" << plot.metric << " mesh=" << spec.base.sys.geom.width() << "x"
        << spec.base.sys.geom.length() << " st=" << spec.base.sys.net.st
        << " Plen=" << spec.base.sys.net.packet_len << "\n";
    outputs.push_back(GridOutput{plot.metric, plot.out});
  }

  GridSpec grid;
  grid.corner = "load";
  grid.rows.reserve(spec.loads.size());
  for (const double load : spec.loads) {
    std::ostringstream label;  // default stream formatting, same bytes as
    label << load;             // the historical direct `out << load`
    grid.rows.push_back(label.str());
  }
  grid.cols.reserve(spec.series.size());
  for (const Series& s : spec.series) {
    ExperimentConfig labelled = spec.base;
    labelled.allocator = s.allocator;
    labelled.scheduler = s.scheduler;
    grid.cols.push_back(labelled.series_label());
  }
  grid.cell = [&spec, &opts](std::size_t row, std::size_t col) {
    const Series& s = spec.series[col];
    ExperimentConfig cfg = spec.base;
    cfg.allocator = s.allocator;
    cfg.scheduler = s.scheduler;
    set_offered_load(cfg, spec.loads[row]);
    apply_effort(cfg, opts);
    return cfg;
  };
  run_grid(grid, outputs, opts, with_ci);
}

}  // namespace procsim::core
