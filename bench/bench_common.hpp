#pragma once

// Shared experiment templates for the figure drivers (paper_figures and the
// abl_* ablations). Every main figure of the paper plots the six series
// {GABL, Paging(0), MBS} × {FCFS, SSD} on a 16×22 mesh with st = 3,
// P_len = 8, num_mes = 5 and all-to-all traffic; the figures differ only in
// workload, metric and load axis.
//
// Common flags (core::parse_run_options): --fast (1 rep, 200 jobs), --jobs=N,
// --reps=N, --seed=N, --threads=N (cell workers, 0 = all hardware threads)
// and --obs-probe. The CSVs are byte-identical at any --threads, probed or not.

#include <vector>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"

namespace procsim::bench {

inline core::ExperimentConfig base_config() {
  core::ExperimentConfig cfg;
  cfg.sys.geom = mesh::Geometry(16, 22);
  cfg.sys.net = network::NetworkParams{3, 8, false};
  cfg.sys.think_time = 50;  // compute phase between a processor's sends
  cfg.sys.target_completions = 1000;
  return cfg;
}

/// Stochastic workload template (paper §5, first workload).
inline core::ExperimentConfig stochastic_base(workload::SideDistribution dist) {
  core::ExperimentConfig cfg = base_config();
  cfg.workload.kind = core::WorkloadKind::kStochastic;
  cfg.workload.job_count = cfg.sys.target_completions;
  cfg.workload.stochastic.side_dist = dist;
  cfg.workload.stochastic.mean_messages = 5.0;
  return cfg;
}

/// Real-workload template: the synthetic SDSC Paragon stream (paper §5,
/// second workload). The archive trace is not shipped, so a model that
/// matches the statistics the paper reports stands in for it
/// (workload/paragon_model.hpp).
inline core::ExperimentConfig trace_base() {
  core::ExperimentConfig cfg = base_config();
  cfg.workload.kind = core::WorkloadKind::kTrace;
  // Default replay effort keeps the whole 15-figure suite to minutes; raise
  // with --jobs=N (up to the full 10,658-job stream) for final numbers.
  cfg.sys.target_completions = 600;
  cfg.workload.replay.prefix = 1800;
  return cfg;
}

/// Saturation variant used by the utilization figures: the paper drives the
/// load "such that the waiting queue is filled very early, allowing each
/// strategy to reach its upper limits of utilization".
inline core::ExperimentConfig saturated(core::ExperimentConfig cfg) {
  cfg.workload.job_count = 3 * cfg.sys.target_completions;
  if (cfg.workload.replay.prefix)
    cfg.workload.replay.prefix = 3 * cfg.sys.target_completions;
  // Skip the cold-start fill so the time average reflects the steady state.
  cfg.sys.warmup_completions = cfg.sys.target_completions / 10;
  return cfg;
}

inline std::vector<double> loads_real_turnaround() {
  return {0.0005, 0.001, 0.002, 0.003, 0.004, 0.005};
}
inline std::vector<double> loads_real() {
  return {0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02};
}
inline std::vector<double> loads_uniform() {
  return {0.005, 0.01, 0.015, 0.02, 0.025, 0.03};
}
inline std::vector<double> loads_exponential() {
  return {0.005, 0.01, 0.02, 0.03, 0.04, 0.05};
}

}  // namespace procsim::bench
