#include "workload/swf.hpp"

#include <bit>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace procsim::workload {

TraceStats compute_stats(const std::vector<TraceJob>& jobs) {
  TraceStats s;
  s.jobs = jobs.size();
  if (jobs.empty()) return s;
  double size_sum = 0;
  double run_sum = 0;
  std::size_t pow2 = 0;
  for (const TraceJob& j : jobs) {
    size_sum += j.processors;
    run_sum += j.runtime;
    if (std::has_single_bit(static_cast<std::uint32_t>(j.processors))) ++pow2;
    if (j.processors > s.max_size) s.max_size = j.processors;
  }
  s.mean_size = size_sum / static_cast<double>(jobs.size());
  s.mean_runtime = run_sum / static_cast<double>(jobs.size());
  s.power_of_two_fraction = static_cast<double>(pow2) / static_cast<double>(jobs.size());
  if (jobs.size() > 1) {
    // Jobs are in submit order in a well-formed trace; be robust to noise.
    double first = jobs.front().submit;
    double last = first;
    for (const TraceJob& j : jobs) {
      if (j.submit < first) first = j.submit;
      if (j.submit > last) last = j.submit;
    }
    s.mean_interarrival = (last - first) / static_cast<double>(jobs.size() - 1);
  }
  return s;
}

std::vector<TraceJob> parse_swf(std::istream& in, std::int32_t max_processors) {
  const double cap = max_processors > 0 ? max_processors
                                        : std::numeric_limits<std::int32_t>::max();
  std::vector<TraceJob> jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == ';') continue;
    std::istringstream fields(line);
    double field[18];
    int n = 0;
    while (n < 18 && (fields >> field[n])) ++n;
    if (n < 5) continue;  // malformed record

    TraceJob j;
    j.submit = field[1];
    j.runtime = field[3];
    const double used = field[4];
    const double requested = n > 7 ? field[7] : -1;
    const double proc_field = requested > 0 ? requested : used;
    // Range-check before the cast: no usable size below 1 processor, and a
    // size above the partition (or int32) cannot be simulated.
    if (!(proc_field >= 1 && proc_field <= cap)) continue;
    j.processors = static_cast<std::int32_t>(proc_field);
    if (j.runtime < 0 && n > 8 && field[8] > 0) j.runtime = field[8];
    if (j.submit < 0 || j.runtime < 0) continue;
    jobs.push_back(j);
  }
  return jobs;
}

std::vector<TraceJob> load_swf_file(const std::string& path, std::int32_t max_processors) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_swf_file: cannot open " + path);
  return parse_swf(in, max_processors);
}

namespace {

/// The process-wide parse cache. Guarded by a mutex: parallel sweep cells
/// and replication workers construct sources concurrently. Parsing happens
/// under the lock on purpose — two racing first loads of a big archive
/// parsing it twice would cost more than the brief serialisation.
struct SwfCache {
  std::mutex mu;
  std::map<std::pair<std::string, std::int32_t>,
           std::shared_ptr<const std::vector<TraceJob>>>
      entries;
  std::uint64_t hits{0};
};

SwfCache& swf_cache() {
  static SwfCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const std::vector<TraceJob>> load_swf_file_shared(
    const std::string& path, std::int32_t max_processors) {
  SwfCache& cache = swf_cache();
  const std::scoped_lock lock(cache.mu);
  const auto key = std::make_pair(path, max_processors);
  if (const auto it = cache.entries.find(key); it != cache.entries.end()) {
    ++cache.hits;
    return it->second;
  }
  auto trace =
      std::make_shared<const std::vector<TraceJob>>(load_swf_file(path, max_processors));
  cache.entries.emplace(key, trace);
  return trace;
}

SwfCacheStats swf_cache_stats() {
  SwfCache& cache = swf_cache();
  const std::scoped_lock lock(cache.mu);
  return SwfCacheStats{cache.entries.size(), cache.hits};
}

void clear_swf_cache() {
  SwfCache& cache = swf_cache();
  const std::scoped_lock lock(cache.mu);
  cache.entries.clear();
  cache.hits = 0;
}

}  // namespace procsim::workload
