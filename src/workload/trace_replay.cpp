#include "workload/trace_replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "des/distributions.hpp"
#include "network/traffic.hpp"
#include "workload/shape.hpp"

namespace procsim::workload {

double arrival_factor_for_load(double load, double trace_mean_interarrival) {
  if (load <= 0) throw std::invalid_argument("arrival_factor_for_load: load must be > 0");
  // Degenerate trace (empty or single job): no inter-arrival information to
  // rescale, so replay at the recorded (trivial) arrival times.
  if (!std::isfinite(trace_mean_interarrival) || trace_mean_interarrival <= 0) return 1.0;
  return 1.0 / (load * trace_mean_interarrival);
}

Job make_trace_job(const TraceJob& rec, std::uint64_t index,
                   const TraceReplayParams& params, const mesh::Geometry& geom,
                   des::Xoshiro256SS& rng) {
  Job job;
  job.id = index;
  job.arrival = rec.submit * params.arrival_factor;
  job.processors = std::clamp(rec.processors, 1, geom.nodes());
  const auto [a, b] = shape_for_processors(job.processors, geom);
  job.width = a;
  job.length = b;
  job.trace_runtime = rec.runtime;
  job.demand = rec.runtime;  // SSD orders by recorded execution time

  const double mean_msgs =
      std::clamp(rec.runtime / params.runtime_scale, 1.0,
                 static_cast<double>(kMaxMessagesPerJob));
  const std::int64_t messages =
      std::min(des::sample_exponential_count(rng, mean_msgs), kMaxMessagesPerJob);
  job.message_plan =
      network::generate_message_plan(job.processors, messages, rng);
  return job;
}

std::vector<Job> make_trace_jobs(const std::vector<TraceJob>& trace,
                                 const TraceReplayParams& params,
                                 const mesh::Geometry& geom, des::Xoshiro256SS& rng) {
  if (params.arrival_factor <= 0)
    throw std::invalid_argument("make_trace_jobs: arrival_factor must be > 0");
  const std::size_t count =
      params.prefix == 0 ? trace.size() : std::min(params.prefix, trace.size());

  std::vector<Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    jobs.push_back(make_trace_job(trace[i], i, params, geom, rng));
  return jobs;
}

}  // namespace procsim::workload
