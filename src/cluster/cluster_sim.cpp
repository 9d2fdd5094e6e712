#include "cluster/cluster_sim.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "alloc/registry.hpp"
#include "des/rng.hpp"
#include "obs/recorder.hpp"

namespace procsim::cluster {

/// One mesh of the fleet: its allocator and scheduler instances (each mesh
/// schedules independently) and the SystemSim wired to the shared clock.
struct ClusterSim::MeshUnit {
  std::unique_ptr<alloc::Allocator> allocator;
  std::unique_ptr<sched::Scheduler> scheduler;
  std::unique_ptr<core::SystemSim> sim;
};

namespace {

bool fits(const workload::Job& job, const mesh::Geometry& geom) {
  return job.width <= geom.width() && job.length <= geom.length() &&
         job.processors <= geom.nodes();
}

}  // namespace

ClusterSim::ClusterSim(ClusterSimConfig cfg)
    : cfg_(std::move(cfg)),
      kind_arrival_(sim_.add_handler(&on_arrival_event, this)),
      kind_migration_(sim_.add_handler(&on_migration_event, this)) {
  const std::size_t n = cfg_.spec.size();
  if (n == 0) throw std::invalid_argument("ClusterSim: empty cluster spec");
  meshes_raw_.reserve(n);
  meshes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const MeshSpec& m = cfg_.spec.meshes[i];
    const std::string alloc_name = m.alloc.empty() ? cfg_.default_alloc : m.alloc;
    auto unit = std::make_unique<MeshUnit>();
    alloc::AllocatorParams params;
    // One RNG substream per mesh: mesh i's randomness is independent of its
    // siblings and of the mesh count, like replications are of each other.
    params.seed = des::substream_seed(cfg_.seed, i);
    unit->allocator = alloc::make_allocator(alloc_name, m.geom, params);
    unit->scheduler = sched::make_scheduler(cfg_.scheduler);
    core::SystemConfig sys;
    sys.geom = m.geom;
    sys.net = cfg_.net;
    sys.think_time = cfg_.think_time;
    // Per-mesh completion targets stay off: the cluster gates warmup and
    // stop centrally via the completion hook (a mesh can't know the fleet's
    // progress).
    sys.target_completions = 0;
    sys.warmup_completions = 0;
    sys.max_events = cfg_.max_events;
    sys.recorder = cfg_.recorder;
    unit->sim = std::make_unique<core::SystemSim>(sys, *unit->allocator,
                                                  *unit->scheduler, &sim_);
    unit->sim->set_completion_hook(&ClusterSim::on_mesh_complete, this);
    meshes_.push_back(unit->sim.get());
    meshes_raw_.push_back(std::move(unit));
  }
}

ClusterSim::~ClusterSim() = default;

core::RunMetrics ClusterSim::run(workload::Source& source) {
  const auto wall_start = std::chrono::steady_clock::now();
  sim_.reset();
  for (core::SystemSim* mesh : meshes_) mesh->begin_external_run();
  dispatcher_ = make_dispatcher(cfg_.spec.balance, cfg_.spec.stale_refresh,
                                des::substream_seed(cfg_.seed, 0xD15Bu));
  completed_ = 0;
  migrations_ = 0;
  migration_latency_paid_ = 0;
  stale_errors_ = 0;
  turnaround_ = stats::Welford{};
  service_ = stats::Welford{};
  inbound_.assign(meshes_.size(), 0);
  migrating_.clear();
  migrating_free_.clear();

  source_ = &source;
  pump_arrival();
  sim_.run(cfg_.max_events);
  source_ = nullptr;

  // Aggregate the fleet: per-mesh end-of-run metrics first (this also does
  // each mesh's recorder pulls, minus the shared-clock counters).
  core::RunMetrics out;
  stats::Welford util;
  std::int64_t total_nodes = 0;
  double node_weighted_util = 0;
  for (core::SystemSim* mesh : meshes_) {
    const core::RunMetrics m = mesh->finish_external_run();
    out.packet_latency.merge(m.packet_latency);
    out.packet_blocking.merge(m.packet_blocking);
    out.packet_hops.merge(m.packet_hops);
    out.packets += m.packets;
    out.mean_queue_length += m.mean_queue_length;  // fleet-wide queued jobs
    util.add(m.utilization);
    const std::int64_t nodes = mesh->config().geom.nodes();
    node_weighted_util += m.utilization * static_cast<double>(nodes);
    total_nodes += nodes;
  }
  out.turnaround = turnaround_;
  out.service = service_;
  out.utilization = node_weighted_util / static_cast<double>(total_nodes);
  out.completed =
      completed_ >= cfg_.warmup_completions ? completed_ - cfg_.warmup_completions : 0;
  out.makespan = sim_.now();
  out.events = sim_.events_executed();
  out.cluster.meshes = meshes_.size();
  out.cluster.util_min = util.min();
  out.cluster.util_max = util.max();
  out.cluster.util_mean = util.mean();
  out.cluster.util_stddev = util.stddev();
  out.cluster.migrations = migrations_;
  out.cluster.migration_latency = migration_latency_paid_;
  out.cluster.stale_errors = stale_errors_;

  if (cfg_.recorder != nullptr) {
    // The shared-clock tallies the per-mesh finish skipped, added exactly
    // once, plus the fleet-level counters.
    obs::Counters& c = cfg_.recorder->counters();
    c.sim_events += sim_.events_executed();
    c.extras.emplace_back("cluster_meshes", meshes_.size());
    c.extras.emplace_back("cluster_migrations", migrations_);
    c.extras.emplace_back("cluster_stale_errors", stale_errors_);
    if (cfg_.recorder->timers_enabled()) {
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - wall_start;
      c.add_timer("run_wall_s", wall.count());
    }
  }
  return out;
}

void ClusterSim::on_arrival_event(void* ctx, std::uint32_t, std::uint64_t) {
  auto* self = static_cast<ClusterSim*>(ctx);
  std::optional<workload::Job> job = self->source_->next_job();
  if (!job) return;
  self->pump_arrival();
  self->dispatch(std::move(*job));
}

void ClusterSim::on_migration_event(void* ctx, std::uint32_t slot, std::uint64_t receiver) {
  auto* self = static_cast<ClusterSim*>(ctx);
  workload::Job job = std::move(self->migrating_[slot]);
  self->migrating_free_.push_back(slot);
  --self->inbound_[receiver];
  self->meshes_[receiver]->submit(std::move(job));
}

void ClusterSim::pump_arrival() {
  const std::optional<double> next = source_->peek_arrival();
  if (!next) return;
  if (*next < sim_.now())
    throw std::invalid_argument("ClusterSim: source arrivals must be non-decreasing");
  sim_.schedule_at(*next, kind_arrival_);
}

void ClusterSim::dispatch(workload::Job job) {
  const std::size_t n = meshes_.size();
  loads_.resize(n);
  eligible_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    loads_[i].queue_depth = static_cast<std::int64_t>(meshes_[i]->queue_depth());
    loads_[i].free_processors = meshes_[i]->free_processors();
    loads_[i].running_jobs = static_cast<std::int64_t>(meshes_[i]->running_jobs());
    if (fits(job, meshes_[i]->config().geom)) eligible_.push_back(i);
  }
  if (eligible_.empty()) {
    throw std::invalid_argument(
        "ClusterSim: job " + std::to_string(job.id) + " (" +
        std::to_string(job.width) + "x" + std::to_string(job.length) +
        ") fits no mesh in the cluster");
  }
  const std::size_t pick = dispatcher_->pick(sim_.now(), loads_, eligible_);
  // A staleness error is a decision the fresh state disagrees with: the
  // chosen mesh's queue is strictly deeper than the shortest eligible one.
  std::int64_t fresh_min = loads_[eligible_.front()].queue_depth;
  for (const std::size_t e : eligible_) {
    if (loads_[e].queue_depth < fresh_min) fresh_min = loads_[e].queue_depth;
  }
  if (loads_[pick].queue_depth > fresh_min) ++stale_errors_;
  meshes_[pick]->submit(std::move(job));
}

void ClusterSim::on_mesh_complete(void* ctx, core::SystemSim& mesh,
                                  const core::JobRecord& rec) {
  static_cast<ClusterSim*>(ctx)->handle_completion(mesh, rec);
}

void ClusterSim::handle_completion(core::SystemSim& mesh, const core::JobRecord& rec) {
  if (measuring()) {
    turnaround_.add(rec.turnaround());
    service_.add(rec.service());
    if (sink_ != nullptr) sink_->on_job(rec);
  }
  ++completed_;
  if (completed_ == cfg_.warmup_completions) {
    // The fleet's steady state starts every member's measured window.
    for (core::SystemSim* m : meshes_) m->restart_measurement();
  }
  if (cfg_.target_completions != 0 &&
      completed_ >= cfg_.target_completions + cfg_.warmup_completions) {
    sim_.stop();
    return;
  }
  if (cfg_.spec.migrate) {
    for (std::size_t i = 0; i < meshes_.size(); ++i) {
      if (meshes_[i] == &mesh) {
        maybe_migrate(i);
        break;
      }
    }
  }
}

void ClusterSim::maybe_migrate(std::size_t receiver) {
  core::SystemSim& r = *meshes_[receiver];
  // Underloaded = idle queue with capacity and nothing already on its way.
  if (r.queue_depth() != 0 || r.free_processors() <= 0 || inbound_[receiver] != 0)
    return;
  const mesh::Geometry r_geom = r.config().geom;
  // Overloaded donor: deepest queue with at least two waiting jobs (stealing
  // a lone queued job just moves the wait plus latency) whose youngest
  // queued job actually fits the receiver. Ties go to the lowest index.
  std::size_t donor = meshes_.size();
  std::int64_t donor_depth = 1;
  for (std::size_t i = 0; i < meshes_.size(); ++i) {
    if (i == receiver) continue;
    const auto depth = static_cast<std::int64_t>(meshes_[i]->queue_depth());
    if (depth < 2 || depth <= donor_depth) continue;
    const workload::Job* candidate = meshes_[i]->peek_last_queued();
    if (candidate == nullptr || !fits(*candidate, r_geom)) continue;
    donor = i;
    donor_depth = depth;
  }
  if (donor == meshes_.size()) return;
  std::optional<workload::Job> job = meshes_[donor]->steal_last_queued();
  if (!job) return;  // unreachable: depth was checked above
  ++migrations_;
  migration_latency_paid_ += cfg_.spec.migrate_latency;
  ++inbound_[receiver];
  // The job travels: it re-queues on the receiver only after the modeled
  // migration latency. Exactly one copy exists throughout — it left the
  // donor's arena above, waits in migrating_, and enters the receiver's
  // arena at submit time.
  std::uint32_t slot;
  if (migrating_free_.empty()) {
    slot = static_cast<std::uint32_t>(migrating_.size());
    migrating_.push_back(std::move(*job));
  } else {
    slot = migrating_free_.back();
    migrating_free_.pop_back();
    migrating_[slot] = std::move(*job);
  }
  sim_.schedule_in(cfg_.spec.migrate_latency, kind_migration_, slot, receiver);
}

}  // namespace procsim::cluster
