#include "obs/counters.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace procsim::obs {

namespace {

void field(std::ostream& out, const char* name, std::uint64_t v, bool& first) {
  char line[128];
  std::snprintf(line, sizeof line, "%s  \"%s\": %" PRIu64, first ? "" : ",\n", name, v);
  out << line;
  first = false;
}

/// Minimal JSON string escaping for counter/timer names (registry names are
/// plain identifiers today; quotes and backslashes are escaped defensively).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Counters::write_json(std::ostream& out) const {
  out << "{\n";
  bool first = true;
  field(out, "jobs_arrived", jobs_arrived, first);
  field(out, "jobs_started", jobs_started, first);
  field(out, "jobs_completed", jobs_completed, first);
  field(out, "jobs_released", jobs_released, first);
  field(out, "schedule_passes", schedule_passes, first);
  field(out, "probe_calls", probe_calls, first);
  field(out, "nominations", nominations, first);
  field(out, "alloc_attempts", alloc_attempts, first);
  field(out, "alloc_successes", alloc_successes, first);
  field(out, "alloc_failures", alloc_failures, first);
  field(out, "alloc_fallbacks", alloc_fallbacks, first);
  field(out, "packets_injected", packets_injected, first);
  field(out, "packets_delivered", packets_delivered, first);
  field(out, "channel_blocks", channel_blocks, first);
  field(out, "telemetry_samples", telemetry_samples, first);
  field(out, "index_frontier_passes", index_frontier_passes, first);
  field(out, "index_frontier_hits", index_frontier_hits, first);
  field(out, "index_first_fit_queries", index_first_fit_queries, first);
  field(out, "index_best_fit_queries", index_best_fit_queries, first);
  field(out, "sim_events", sim_events, first);
  field(out, "net_runs_batched", net_runs_batched, first);
  field(out, "net_run_len_1", net_run_len_hist[0], first);
  field(out, "net_run_len_2_3", net_run_len_hist[1], first);
  field(out, "net_run_len_4_7", net_run_len_hist[2], first);
  field(out, "net_run_len_8_15", net_run_len_hist[3], first);
  field(out, "net_run_len_16_31", net_run_len_hist[4], first);
  field(out, "net_run_len_32_plus", net_run_len_hist[5], first);
  field(out, "net_truncations", net_truncations, first);
  field(out, "net_analytic_packets", net_analytic_packets, first);
  out << ",\n  \"extras\": {";
  for (std::size_t i = 0; i < extras.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "%s\"%s\": %" PRIu64, i ? ", " : "",
                  escape(extras[i].first).c_str(), extras[i].second);
    out << line;
  }
  out << "},\n  \"timers\": {";
  for (std::size_t i = 0; i < timers.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "%s\"%s\": %.6f", i ? ", " : "",
                  escape(timers[i].first).c_str(), timers[i].second);
    out << line;
  }
  out << "}\n}\n";
}

}  // namespace procsim::obs
