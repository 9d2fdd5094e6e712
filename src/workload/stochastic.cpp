#include "workload/stochastic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "des/distributions.hpp"
#include "network/traffic.hpp"

namespace procsim::workload {

const char* to_string(SideDistribution d) noexcept {
  switch (d) {
    case SideDistribution::kUniform: return "uniform";
    case SideDistribution::kExponential: return "exponential";
  }
  return "?";
}

namespace {

[[nodiscard]] std::int32_t sample_side(des::Xoshiro256SS& rng, SideDistribution dist,
                                       std::int32_t extent) {
  switch (dist) {
    case SideDistribution::kUniform:
      return static_cast<std::int32_t>(des::sample_uniform_int(rng, 1, extent));
    case SideDistribution::kExponential: {
      // Mean of half the side, rounded, clamped into [1, extent] — the
      // clamping follows the literature's use of truncated exponentials.
      const double x = des::sample_exponential(rng, static_cast<double>(extent) / 2.0);
      return std::clamp(static_cast<std::int32_t>(std::lround(x)), 1, extent);
    }
  }
  throw std::logic_error("sample_side: bad distribution");
}

}  // namespace

Job next_stochastic_job(const StochasticParams& params, const mesh::Geometry& geom,
                        des::Xoshiro256SS& rng, double& t, std::uint64_t id) {
  if (params.load <= 0) throw std::invalid_argument("next_stochastic_job: load must be > 0");
  if (!(params.mean_messages <= static_cast<double>(kMaxMessagesPerJob)))
    throw std::invalid_argument("next_stochastic_job: mean_messages must be <= " +
                                std::to_string(kMaxMessagesPerJob));
  t += des::sample_exponential(rng, 1.0 / params.load);
  Job job;
  job.id = id;
  job.arrival = t;
  job.width = sample_side(rng, params.side_dist, geom.width());
  job.length = sample_side(rng, params.side_dist, geom.length());
  job.processors = job.width * job.length;
  const std::int64_t messages = des::sample_exponential_count(rng, params.mean_messages);
  job.message_plan =
      network::generate_message_plan(job.processors, messages, rng);
  job.demand =
      static_cast<double>(job.total_messages()) * static_cast<double>(params.packet_len);
  return job;
}

std::vector<Job> generate_stochastic(const StochasticParams& params,
                                     const mesh::Geometry& geom, std::size_t count,
                                     des::Xoshiro256SS& rng, double start,
                                     std::uint64_t first_id) {
  if (params.load <= 0) throw std::invalid_argument("generate_stochastic: load must be > 0");
  std::vector<Job> jobs;
  jobs.reserve(count);
  double t = start;
  for (std::size_t i = 0; i < count; ++i)
    jobs.push_back(next_stochastic_job(params, geom, rng, t, first_id + i));
  return jobs;
}

}  // namespace procsim::workload
