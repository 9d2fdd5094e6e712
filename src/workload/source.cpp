#include "workload/source.hpp"

#include <stdexcept>
#include <utility>

#include "des/distributions.hpp"

namespace procsim::workload {

// ------------------------------------------------------------- stochastic

StochasticSource::StochasticSource(StochasticParams params, mesh::Geometry geom,
                                   std::size_t count, std::string name)
    : params_(params), geom_(geom), count_(count), name_(std::move(name)) {
  if (params_.load <= 0)
    throw std::invalid_argument("StochasticSource: load must be > 0");
}

void StochasticSource::do_reset(std::uint64_t seed) {
  rng_ = des::Xoshiro256SS{seed};
  t_ = 0;
  next_id_ = 0;
}

std::optional<Job> StochasticSource::generate() {
  if (count_ != 0 && next_id_ >= count_) return std::nullopt;
  return next_stochastic_job(params_, geom_, rng_, t_, next_id_++);
}

// ------------------------------------------------------------------ trace

TraceSource::TraceSource(std::shared_ptr<const std::vector<TraceJob>> trace,
                         TraceReplayParams replay, double load, mesh::Geometry geom,
                         std::string name)
    : trace_(std::move(trace)),
      replay_(replay),
      active_(replay),
      load_(load),
      geom_(geom),
      name_(std::move(name)) {
  if (!trace_) throw std::invalid_argument("TraceSource: null shared trace");
  stats_ = compute_stats(*trace_);
}

TraceSource::TraceSource(std::vector<TraceJob> trace, TraceReplayParams replay,
                         double load, mesh::Geometry geom, std::string name)
    : TraceSource(std::make_shared<const std::vector<TraceJob>>(std::move(trace)),
                  replay, load, geom, std::move(name)) {}

TraceSource::TraceSource(ParagonModelParams model, TraceReplayParams replay,
                         double load, mesh::Geometry geom, std::string name)
    : trace_(std::make_shared<const std::vector<TraceJob>>()),
      model_(model),
      replay_(replay),
      active_(replay),
      load_(load),
      geom_(geom),
      name_(std::move(name)) {}

void TraceSource::do_reset(std::uint64_t seed) {
  rng_ = des::Xoshiro256SS{seed};
  if (model_) {
    // The synthetic trace is itself part of the replication's randomness:
    // regenerate it from the replication seed, exactly as the eager path did.
    trace_ = std::make_shared<const std::vector<TraceJob>>(
        generate_paragon_trace(*model_, rng_));
    stats_ = compute_stats(*trace_);
  }
  active_ = replay_;
  if (load_ > 0 && stats_.mean_interarrival > 0)
    active_.arrival_factor = arrival_factor_for_load(load_, stats_.mean_interarrival);
  if (active_.arrival_factor <= 0)
    throw std::invalid_argument("TraceSource: arrival_factor must be > 0");
  next_ = 0;
  limit_ = active_.prefix == 0 ? trace_->size()
                               : std::min(active_.prefix, trace_->size());
}

std::optional<Job> TraceSource::generate() {
  if (next_ >= limit_) return std::nullopt;
  const std::size_t i = next_++;
  return make_trace_job((*trace_)[i], i, active_, geom_, rng_);
}

// ------------------------------------------------------------- saturation

SaturationSource::SaturationSource(SaturationParams params, mesh::Geometry geom,
                                   std::string name)
    : params_(params), geom_(geom), name_(std::move(name)) {
  if (params_.count == 0)
    throw std::invalid_argument("SaturationSource: count must be > 0");
}

void SaturationSource::do_reset(std::uint64_t seed) {
  rng_ = des::Xoshiro256SS{seed};
  next_id_ = 0;
}

std::optional<Job> SaturationSource::generate() {
  if (next_id_ >= params_.count) return std::nullopt;
  // A stochastic job minus the arrival draw: the whole backlog is present at
  // time zero, so the queue is full before the first completion.
  StochasticParams p;
  p.load = 1;  // unused: no inter-arrival is drawn
  p.side_dist = params_.side_dist;
  p.mean_messages = params_.mean_messages;
  p.packet_len = params_.packet_len;
  // Reuse the canonical sampling helper to keep side/message semantics in one
  // place: draw a full stochastic job, then zero its arrival (the unit-rate
  // inter-arrival draw is discarded — every job arrives at t = 0).
  double t = 0;
  Job job = next_stochastic_job(p, geom_, rng_, t, next_id_++);
  job.arrival = 0;
  return job;
}

// ----------------------------------------------------------------- bursty

BurstySource::BurstySource(BurstyParams params, mesh::Geometry geom, std::string name)
    : params_(params), geom_(geom), name_(std::move(name)) {
  if (params_.load <= 0) throw std::invalid_argument("BurstySource: load must be > 0");
  if (params_.burst_ratio < 1)
    throw std::invalid_argument("BurstySource: burst_ratio must be >= 1");
  if (params_.phase_jobs < 1)
    throw std::invalid_argument("BurstySource: phase_jobs must be >= 1");
}

void BurstySource::do_reset(std::uint64_t seed) {
  rng_ = des::Xoshiro256SS{seed};
  t_ = 0;
  high_ = true;
  next_id_ = 0;
}

std::optional<Job> BurstySource::generate() {
  if (params_.count != 0 && next_id_ >= params_.count) return std::nullopt;
  // Alternating equal-mean-length phases: the long-run rate is the harmonic
  // mean of the two phase rates, pinned to `load` by construction.
  const double b = params_.burst_ratio;
  const double rate_low = params_.load * (b + 1) / (2 * b);
  const double rate = high_ ? b * rate_low : rate_low;
  StochasticParams p;
  p.load = rate;
  p.side_dist = params_.side_dist;
  p.mean_messages = params_.mean_messages;
  p.packet_len = params_.packet_len;
  Job job = next_stochastic_job(p, geom_, rng_, t_, next_id_++);
  if (des::sample_bernoulli(rng_, 1.0 / params_.phase_jobs)) high_ = !high_;
  return job;
}

}  // namespace procsim::workload
