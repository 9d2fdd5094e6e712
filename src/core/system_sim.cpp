#include "core/system_sim.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "obs/recorder.hpp"

namespace procsim::core {

SystemSim::SystemSim(SystemConfig cfg, alloc::Allocator& allocator,
                     sched::Scheduler& scheduler)
    : cfg_(cfg), allocator_(allocator), scheduler_(scheduler),
      rec_(cfg.recorder), sim_(&own_sim_) {
  wire();
}

SystemSim::SystemSim(SystemConfig cfg, alloc::Allocator& allocator,
                     sched::Scheduler& scheduler, des::Simulator* clock)
    : cfg_(cfg), allocator_(allocator), scheduler_(scheduler),
      rec_(cfg.recorder), sim_(clock) {
  if (clock == nullptr)
    throw std::invalid_argument("SystemSim: external clock must be non-null");
  wire();
}

void SystemSim::wire() {
  if (!(allocator_.geometry() == cfg_.geom))
    throw std::invalid_argument("SystemSim: allocator geometry mismatch");
  kind_arrival_ = sim_->add_handler(&on_arrival_event, this);
  kind_complete_ = sim_->add_handler(&on_complete_event, this);
  kind_inject_ = sim_->add_handler(&on_inject_event, this);
  kind_telemetry_ = sim_->add_handler(&on_telemetry_event, this);
  net_ = std::make_unique<network::WormholeNetwork>(*sim_, cfg_.geom, cfg_.net);
  // Captureless-lambda-to-function-pointer: the per-delivery dispatch is a
  // raw call through (fn, ctx), not a type-erased std::function.
  net_->set_delivery_sink(
      [](void* ctx, const network::Delivery& d) {
        static_cast<SystemSim*>(ctx)->on_delivery(d);
      },
      this);
}

void SystemSim::on_arrival_event(void* ctx, std::uint32_t, std::uint64_t) {
  auto* self = static_cast<SystemSim*>(ctx);
  std::optional<workload::Job> job = self->source_->next_job();
  if (!job) return;  // a source must not retract a peeked job; be lenient
  self->pump_arrival();
  self->on_arrival(std::move(*job));
}

void SystemSim::on_complete_event(void* ctx, std::uint32_t slot, std::uint64_t) {
  static_cast<SystemSim*>(ctx)->complete_job(slot);
}

void SystemSim::on_inject_event(void* ctx, std::uint32_t slot, std::uint64_t b) {
  static_cast<SystemSim*>(ctx)->net_->inject(static_cast<mesh::NodeId>(b >> 32),
                                             static_cast<mesh::NodeId>(b & 0xFFFFFFFFU), slot);
}

void SystemSim::on_telemetry_event(void* ctx, std::uint32_t, std::uint64_t) {
  static_cast<SystemSim*>(ctx)->sample_telemetry();
}

RunMetrics SystemSim::run(const std::vector<workload::Job>& jobs) {
  if (!std::is_sorted(jobs.begin(), jobs.end(),
                      [](const workload::Job& a, const workload::Job& b) {
                        return a.arrival < b.arrival;
                      }))
    throw std::invalid_argument("SystemSim::run: jobs must be sorted by arrival");
  workload::VectorSource source(jobs);
  return run(source);
}

RunMetrics SystemSim::run(workload::Source& source) {
  const auto wall_start = std::chrono::steady_clock::now();
  sim_->reset();
  begin_run();

  source_ = &source;
  pump_arrival();
  // The first telemetry snapshot lands at t = 0 (the pristine mesh); every
  // sampling event is pure observation plus its own reschedule, and the
  // (time, seq) pop order keeps all model-event pairs in their original
  // relative order — trajectories are bit-identical with sampling on.
  if (rec_ != nullptr && rec_->sampler() != nullptr) sample_telemetry();
  sim_->run(cfg_.max_events);
  source_ = nullptr;

  finalize_run(/*own_clock=*/true, wall_start);
  return metrics_;
}

void SystemSim::begin_run() {
  allocator_.reset();
  allocator_.set_recorder(rec_);
  scheduler_.clear();
  arena_.clear();
  metrics_ = RunMetrics{};
  completed_ = 0;
  seq_ = 0;
  measure_start_ = 0;
  pass_pending_ = false;
  busy_procs_ = stats::TimeWeighted{};
  queue_len_ = stats::TimeWeighted{};
  rng_ = des::Xoshiro256SS{cfg_.seed};
  // A run stopped by target_completions leaves packets in flight; the clock
  // was reset first, so dropping them cannot strand an event.
  net_->reset();
  net_->set_recorder(rec_);
}

void SystemSim::finalize_run(bool own_clock,
                             std::chrono::steady_clock::time_point wall_start) {
  const double end = sim_->now();
  metrics_.completed = completed_ >= cfg_.warmup_completions
                           ? completed_ - cfg_.warmup_completions
                           : 0;
  metrics_.makespan = end;
  metrics_.utilization =
      busy_procs_.average(end) / static_cast<double>(cfg_.geom.nodes());
  metrics_.mean_queue_length = queue_len_.average(end);
  metrics_.events = sim_->events_executed();
  if (rec_ != nullptr) {
    // End-of-run pull of the subsystem tallies the hot hooks never touch:
    // the occupancy index and the network keep their own lightweight counts
    // (reset with the run), and reservation-aware schedulers export named
    // counters without depending on obs.
    obs::Counters& c = rec_->counters();
    const mesh::OccupancyIndex::QueryStats& qs = allocator_.index().query_stats();
    c.index_frontier_passes += qs.frontier_passes;
    c.index_frontier_hits += qs.frontier_hits;
    c.index_first_fit_queries += qs.first_fit_queries;
    c.index_best_fit_queries += qs.best_fit_queries;
    if (own_clock) {
      // The clock-level tallies belong to whoever owns the event loop: in
      // cluster mode N meshes share one clock and the cluster adds these
      // once, else every counter would be N-fold.
      c.sim_events += sim_->events_executed();
    }
    const network::NetStats& ns = net_->stats();
    c.net_runs_batched += ns.runs_batched;
    for (std::size_t i = 0; i < 6; ++i)
      c.net_run_len_hist[i] += ns.run_len_hist[i];
    c.net_truncations += ns.truncations;
    c.net_analytic_packets += ns.analytic_packets;
    scheduler_.export_counters(c.extras);
    if (own_clock && rec_->timers_enabled()) {
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - wall_start;
      c.add_timer("run_wall_s", wall.count());
    }
  }
}

void SystemSim::begin_external_run() { begin_run(); }

void SystemSim::submit(workload::Job job) { on_arrival(std::move(job)); }

RunMetrics SystemSim::finish_external_run() {
  finalize_run(/*own_clock=*/false, {});
  return metrics_;
}

const workload::Job* SystemSim::peek_last_queued() const {
  if (scheduler_.size() == 0) return nullptr;
  const sched::QueuedJob q = scheduler_.job_at(scheduler_.size() - 1);
  return &arena_.job(arena_.slot_of(q.job_id));
}

std::optional<workload::Job> SystemSim::steal_last_queued() {
  if (scheduler_.size() == 0) return std::nullopt;
  const sched::QueuedJob taken = scheduler_.take(scheduler_.size() - 1);
  queue_len_.set(sim_->now(), static_cast<double>(scheduler_.size()));
  return arena_.extract(arena_.slot_of(taken.job_id));
}

void SystemSim::pump_arrival() {
  const std::optional<double> next = source_->peek_arrival();
  if (!next) return;
  if (*next < sim_->now())
    throw std::invalid_argument("SystemSim: source arrivals must be non-decreasing");
  // The next arrival is scheduled *before* this one's side effects run (see
  // the call site in the arrival event), preserving the event order of the
  // historical schedule-all-arrivals-up-front implementation.
  sim_->schedule_at(*next, kind_arrival_);
}

void SystemSim::on_arrival(workload::Job job) {
  if (rec_ != nullptr)
    rec_->job_arrival(sim_->now(), job.id, job.width, job.length, job.processors);
  sched::QueuedJob q;
  q.job_id = job.id;
  q.arrival = job.arrival;
  q.demand = job.demand;
  q.area = static_cast<std::int64_t>(job.width) * job.length;
  q.processors = job.processors;
  q.seq = seq_++;
  scheduler_.enqueue(q);
  queue_len_.set(sim_->now(), static_cast<double>(scheduler_.size()));

  (void)arena_.acquire(std::move(job));  // queued; placed at start
  request_schedule();
}

void SystemSim::request_schedule() {
  if (!cfg_.coalesce_passes) {
    try_schedule();
    return;
  }
  if (pass_pending_) return;
  pass_pending_ = true;
  // One pass per timestamp: every same-time trigger after the first folds
  // into the already-registered batch-end action. The flag clears before the
  // pass runs so job starts *inside* the pass (which may complete instantly
  // at the same timestamp) can re-request and extend the batch.
  sim_->at_batch_end([this] {
    pass_pending_ = false;
    try_schedule();
  });
}

const workload::Job& SystemSim::queued_job(std::uint64_t job_id) const {
  return arena_.job(arena_.slot_of(job_id));
}

void SystemSim::try_schedule() {
  // One transactional scheduling pass. Each step the discipline nominates a
  // queue position (probing the allocatability of non-head jobs if it wants
  // to — can_allocate answers from the occupancy index without committing
  // anything), the simulator attempts the real allocation, and on success
  // removes the job and starts it. The pass ends when the discipline has no
  // candidate or an attempt fails — for the ordered disciplines, which
  // always nominate the head and never probe, that failed attempt is
  // exactly the paper's blocking head-of-queue semantics (§4).
  std::uint32_t probes = 0;
  std::int32_t nominees = 0;
  std::int32_t started = 0;
  std::uint64_t pass_seq = 0;
  if (rec_ != nullptr) {
    pass_seq = rec_->counters().schedule_passes;
    rec_->pass_begin(sim_->now(), pass_seq,
                     static_cast<std::uint64_t>(scheduler_.size()));
  }
  const sched::AllocProbe probe = [this, &probes](const sched::QueuedJob& q) {
    if (rec_ != nullptr) {
      rec_->probe_call();
      ++probes;
    }
    const workload::Job& job = queued_job(q.job_id);
    return allocator_.can_allocate(alloc::Request{job.width, job.length, job.processors});
  };
  // The probe-at-instant companion: would the job fit once these running
  // jobs' blocks were released? Also side-effect free (a hypothetical-bitmap
  // query), so shape-aware reservations cost queries, never state.
  const sched::ShapeProbe shape_fit =
      [this](const sched::QueuedJob& q, const std::vector<mesh::SubMesh>& released) {
        const workload::Job& job = queued_job(q.job_id);
        return allocator_.can_allocate_with_free(
            alloc::Request{job.width, job.length, job.processors}, released);
      };
  for (;;) {
    const sched::SchedSnapshot snap{sim_->now(),
                                    static_cast<std::int64_t>(allocator_.free_processors()),
                                    &shape_fit};
    const auto pos = scheduler_.select(probe, snap);
    if (!pos) break;
    if (rec_ != nullptr) ++nominees;
    const sched::QueuedJob candidate = scheduler_.job_at(*pos);
    const workload::Job& job = queued_job(candidate.job_id);
    alloc::Request req{job.width, job.length, job.processors};
    auto placement = allocator_.allocate(req);
    if (!placement) {
      if (rec_ != nullptr)
        rec_->alloc_fail(sim_->now(), job.id, req.width, req.length, req.processors);
      break;  // blocking semantics / a stale probe ends the pass
    }
    if (rec_ != nullptr) {
      const mesh::SubMesh& first = placement->blocks.front();
      rec_->alloc_success(sim_->now(), job.id, placement->allocated,
                          static_cast<std::uint32_t>(placement->blocks.size()),
                          first.x1, first.y1, first.width(), first.length());
      ++started;
    }
    const sched::QueuedJob taken = scheduler_.take(*pos);
    scheduler_.on_start(taken, sim_->now(), placement->allocated, placement->blocks);
    queue_len_.set(sim_->now(), static_cast<double>(scheduler_.size()));
    start_job(arena_.slot_of(taken.job_id), std::move(*placement));
  }
  if (rec_ != nullptr)
    rec_->pass_end(sim_->now(), pass_seq, probes, nominees, started,
                   static_cast<std::int32_t>(scheduler_.size()));
}

void SystemSim::start_job(JobArena::Slot slot, alloc::Placement placement) {
  const workload::Job& job = arena_.job(slot);
  arena_.start_time(slot) = sim_->now();
  arena_.placement(slot) = std::move(placement);
  busy_procs_.add(sim_->now(),
                  static_cast<double>(arena_.placement(slot).allocated));

  const std::vector<network::SrcDst> traffic =
      network::map_plan(job.message_plan, arena_.placement(slot).compute_nodes);

  if (traffic.empty()) {
    // Single-processor job (or no messages): nominal local service of one
    // packet's worth of work (a zero-hop traversal).
    const double nominal = static_cast<double>(net_->base_latency_cycles(0));
    arena_.outstanding(slot) = 0;
    sim_->schedule_in(nominal, kind_complete_, slot);
    return;
  }

  arena_.outstanding(slot) = static_cast<std::int64_t>(traffic.size());
  metrics_.packets += traffic.size();
  // Group messages by source, preserving plan order; every source streams
  // its messages one at a time (blocking sends), all sources concurrently.
  // The slot rides along as the packet tag, so deliveries come back O(1).
  StreamSet& streams = arena_.streams(slot);
  streams.build(traffic);
  for (std::size_t i = 0; i < streams.sources(); ++i) {
    const auto dst = streams.next_at(i);
    net_->inject(streams.source(i), *dst, slot);
  }
}

void SystemSim::on_delivery(const network::Delivery& d) {
  if (measuring()) {
    metrics_.packet_latency.add(d.latency);
    metrics_.packet_blocking.add(d.blocked);
    metrics_.packet_hops.add(static_cast<double>(d.hops));
  }
  const auto slot = static_cast<JobArena::Slot>(d.tag);
  if (!arena_.occupied(slot))
    throw std::logic_error("SystemSim: delivery for unknown job");

  // The source that just completed a send issues its next message after the
  // (optional) compute gap.
  if (const auto next_dst = arena_.streams(slot).advance(d.src)) {
    if (cfg_.think_time > 0) {
      sim_->schedule_in(cfg_.think_time, kind_inject_, slot,
                        std::uint64_t{static_cast<std::uint32_t>(d.src)} << 32 |
                            static_cast<std::uint32_t>(*next_dst));
    } else {
      net_->inject(d.src, *next_dst, slot);
    }
  }

  if (--arena_.outstanding(slot) == 0) complete_job(slot);
}

void SystemSim::complete_job(JobArena::Slot slot) {
  if (!arena_.occupied(slot))
    throw std::logic_error("SystemSim: completing unknown job");
  const workload::Job& job = arena_.job(slot);
  const alloc::Placement& placement = arena_.placement(slot);
  const double start_time = arena_.start_time(slot);
  const double now = sim_->now();

  busy_procs_.add(now, -static_cast<double>(placement.allocated));
  allocator_.release(placement);
  scheduler_.on_complete(job.id, now);
  if (rec_ != nullptr) {
    rec_->release(now, job.id, placement.allocated);
    rec_->complete(now, job.id, now - job.arrival);
  }

  JobRecord rec;
  const bool want_record =
      hook_ != nullptr || (sink_ != nullptr && measuring());
  if (want_record) {
    rec.id = job.id;
    rec.arrival = job.arrival;
    rec.start = start_time;
    rec.finish = now;
    rec.demand = job.demand;
    rec.width = job.width;
    rec.length = job.length;
    rec.processors = job.processors;
    rec.allocated = placement.allocated;
    rec.alloc_blocks = static_cast<std::int32_t>(placement.blocks.size());
    if (placement.blocks.size() == 1) {
      rec.alloc_width = placement.blocks.front().width();
      rec.alloc_length = placement.blocks.front().length();
    }
  }
  if (measuring()) {
    metrics_.turnaround.add(now - job.arrival);
    metrics_.service.add(now - start_time);
    if (sink_ != nullptr) sink_->on_job(rec);
  }
  ++completed_;
  if (completed_ == cfg_.warmup_completions) {
    // Steady state reached: restart the time-averaged windows.
    busy_procs_.reset_window(now);
    queue_len_.reset_window(now);
    measure_start_ = now;
  }
  arena_.release(slot);

  if (cfg_.target_completions != 0 &&
      completed_ >= cfg_.target_completions + cfg_.warmup_completions) {
    sim_->stop();
    return;
  }
  request_schedule();
  // The cluster hook runs last: the completion is fully accounted, the slot
  // released, and any same-time scheduling pass done, so the hook sees this
  // mesh's post-completion state (migration decisions key off it).
  if (hook_ != nullptr) hook_(hook_ctx_, *this, rec);
}

void SystemSim::sample_telemetry() {
  obs::GaugeSampler& sampler = *rec_->sampler();
  const mesh::OccupancyIndex& index = allocator_.index();
  obs::GaugeSampler::Sample s;
  s.t = sim_->now();
  s.queue_depth = scheduler_.size();
  // Every resident job is either queued or holding processors.
  s.running_jobs = arena_.active() - scheduler_.size();
  s.busy_nodes = index.busy_count();
  s.free_nodes = index.free_count();
  s.max_free_run = index.max_free_run();
  // The largest free sub-mesh, uncapped. Reading it may warm the index's
  // frontier cache, but caches are semantically transparent — every
  // subsequent query answers identically — so sampling stays observation-
  // only (the attached-vs-detached byte compare pins this).
  const auto rect = index.largest_free(cfg_.geom.width(), cfg_.geom.length());
  s.largest_rect = rect ? rect->area() : 0;
  s.external_frag =
      s.free_nodes > 0
          ? 1.0 - static_cast<double>(s.largest_rect) / static_cast<double>(s.free_nodes)
          : 0.0;
  sampler.append(s);
  ++rec_->counters().telemetry_samples;
  // Drain guard: keep sampling only while the run still has work — resident
  // jobs or pending arrivals. Without it an unbounded reschedule would keep
  // the event queue non-empty forever on runs that end by draining.
  if (arena_.active() > 0 || (source_ != nullptr && source_->peek_arrival()))
    sim_->schedule_in(sampler.interval(), kind_telemetry_);
}

}  // namespace procsim::core
