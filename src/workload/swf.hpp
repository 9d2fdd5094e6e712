#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

namespace procsim::workload {

/// One record of a Standard Workload Format (SWF) trace, reduced to the
/// fields the paper's methodology uses: "Our real workload trace uses the
/// arrival times, job execution times and job sizes."
struct TraceJob {
  double submit{0};          ///< seconds since trace start
  double runtime{0};         ///< recorded execution time, seconds
  std::int32_t processors{1};
};

/// Summary statistics of a trace (compare against the paper's published
/// characterisation of the SDSC Paragon stream).
struct TraceStats {
  std::size_t jobs{0};
  double mean_interarrival{0};
  double mean_size{0};
  double mean_runtime{0};
  double power_of_two_fraction{0};
  std::int32_t max_size{0};
};

[[nodiscard]] TraceStats compute_stats(const std::vector<TraceJob>& jobs);

/// Parses the Standard Workload Format of the Feitelson Parallel Workloads
/// Archive: ';'-prefixed header comments, then whitespace-separated records
///   1 job#  2 submit  3 wait  4 run  5 used-procs  6 avg-cpu  7 used-mem
///   8 req-procs  9 req-time  10 req-mem  11 status  12 uid  13 gid
///   14 exe  15 queue  16 partition  17 preceding-job  18 think-time
/// Processor count prefers field 8 (requested), falling back to field 5;
/// runtime prefers field 4, falling back to field 9. Jobs lacking a usable
/// size (below 1) or with negative submit/run times are skipped.
/// `max_processors` drops jobs too large for the simulated partition (0 =
/// up to INT32_MAX), the paper's "taken only from the 352 nodes".
[[nodiscard]] std::vector<TraceJob> parse_swf(std::istream& in,
                                              std::int32_t max_processors = 0);

/// Convenience file-loading wrapper; throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] std::vector<TraceJob> load_swf_file(const std::string& path,
                                                  std::int32_t max_processors = 0);

/// Loads an SWF file through a process-wide, thread-safe cache keyed by
/// (path, max_processors): each distinct file is parsed once and the
/// immutable record vector is shared by every replication — and every cell
/// of a sweep — that replays it, instead of re-reading the archive per
/// replication. Entries live for the process lifetime (sweeps replay the
/// same handful of fixed archives); the cache assumes trace files do not
/// change underneath a running experiment. Throws like load_swf_file.
[[nodiscard]] std::shared_ptr<const std::vector<TraceJob>> load_swf_file_shared(
    const std::string& path, std::int32_t max_processors = 0);

/// Cache observability (tests, diagnostics).
struct SwfCacheStats {
  std::size_t entries{0};  ///< distinct (path, max_processors) keys parsed
  std::uint64_t hits{0};   ///< shared loads answered without re-parsing
};
[[nodiscard]] SwfCacheStats swf_cache_stats();

/// Drops every cached trace (test isolation hook).
void clear_swf_cache();

}  // namespace procsim::workload
