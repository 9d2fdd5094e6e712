#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace procsim::obs {

/// The counter/timer registry pillar: run-wide tallies bumped by the
/// Recorder's hot-path hooks plus subsystem tallies (occupancy index,
/// network, backfill reservations) pulled in once at the end of a run.
/// Dumped as one JSON report per run (write_json), printed by
/// `procsim_sweep --counters`.
///
/// Plain public fields on purpose: a hook costs one `++c.field`, no name
/// lookup — the zero-overhead-off contract extends to "cheap when on".
struct Counters {
  // Bumped by the SystemSim / Allocator / WormholeNetwork hooks.
  std::uint64_t jobs_arrived{0};
  std::uint64_t jobs_started{0};
  std::uint64_t jobs_completed{0};
  std::uint64_t jobs_released{0};
  std::uint64_t schedule_passes{0};
  std::uint64_t probe_calls{0};      ///< AllocProbe invocations (can_allocate)
  std::uint64_t nominations{0};      ///< select() returned a candidate
  std::uint64_t alloc_attempts{0};   ///< strategy allocate() entries
  std::uint64_t alloc_successes{0};
  std::uint64_t alloc_failures{0};
  std::uint64_t alloc_fallbacks{0};  ///< strategy left its contiguous fast path
  std::uint64_t packets_injected{0};
  std::uint64_t packets_delivered{0};
  std::uint64_t channel_blocks{0};
  std::uint64_t telemetry_samples{0};

  // Pulled from subsystem tallies at the end of each run (SystemSim::run).
  std::uint64_t index_frontier_passes{0};  ///< full maximal-rectangle sweeps
  std::uint64_t index_frontier_hits{0};    ///< largest_free answered from frontier
  std::uint64_t index_first_fit_queries{0};
  std::uint64_t index_best_fit_queries{0};
  /// Always 0 and not in write_json: largest_free's descent path and the
  /// calendar queue are gone, and the fields stay only while perfbench/
  /// still reads them.
  std::uint64_t index_descent_queries{0};
  std::uint64_t calendar_rebuckets{0};
  std::uint64_t sim_events{0};
  std::uint64_t net_runs_batched{0};       ///< batched-engine maximal runs started
  /// Maximal-run lengths (channels acquired per run), buckets
  /// 1, 2-3, 4-7, 8-15, 16-31, 32+.
  std::uint64_t net_run_len_hist[6]{};
  std::uint64_t net_truncations{0};        ///< reservations stolen by earlier attempts
  std::uint64_t net_analytic_packets{0};   ///< packets served by the analytic mode

  /// Named extension counters (e.g. Scheduler::export_counters — backfill
  /// reservations honored/broken) appended in registration order.
  std::vector<std::pair<std::string, std::uint64_t>> extras;
  /// Wall-clock phase timers in seconds, appended in completion order.
  /// Opt-in (Recorder::enable_phase_timers) — wall time is measurement, not
  /// simulation, and the overhead bench runs without it.
  std::vector<std::pair<std::string, double>> timers;

  void add_extra(std::string name, std::uint64_t value) {
    extras.emplace_back(std::move(name), value);
  }
  void add_timer(std::string name, double seconds) {
    timers.emplace_back(std::move(name), seconds);
  }

  void reset() { *this = Counters{}; }

  /// One JSON object, fixed key order (named fields, then "extras", then
  /// "timers") — byte-stable across runs with identical tallies.
  void write_json(std::ostream& out) const;
};

}  // namespace procsim::obs
