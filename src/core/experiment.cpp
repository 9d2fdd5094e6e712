#include "core/experiment.hpp"

#include <stdexcept>

#include "alloc/registry.hpp"
#include "cluster/cluster_sim.hpp"
#include "obs/recorder.hpp"
#include "sched/registry.hpp"
#include "util/strings.hpp"
#include "workload/source_registry.hpp"
#include "workload/swf.hpp"

namespace procsim::core {

AllocatorSpec::AllocatorSpec(const std::string& name) {
  const auto parsed = alloc::parse_allocator_name(name);
  if (!parsed)
    throw std::invalid_argument("unknown allocator '" + name +
                                "'; known: " + util::join(alloc::known_allocators()));
  canonical = parsed->canonical;
}

std::unique_ptr<alloc::Allocator> make_allocator(const AllocatorSpec& spec,
                                                 mesh::Geometry geom, std::uint64_t seed) {
  alloc::AllocatorParams params;
  params.seed = seed;
  params.paging_indexing = spec.paging_indexing;
  return alloc::make_allocator(spec.canonical, geom, params);
}

std::unique_ptr<sched::Scheduler> make_scheduler(const sched::SchedSpec& spec) {
  return sched::make_scheduler(spec);
}

std::optional<AllocatorSpec> parse_allocator_spec(const std::string& name) {
  const auto parsed = alloc::parse_allocator_name(name);
  if (!parsed) return std::nullopt;
  AllocatorSpec spec;
  spec.canonical = parsed->canonical;
  return spec;
}

std::string ExperimentConfig::series_label() const {
  return allocator.label() + "(" + scheduler.name() + ")";
}

std::unique_ptr<workload::Source> make_workload_source(const WorkloadSpec& spec,
                                                       const mesh::Geometry& geom,
                                                       std::int32_t packet_len) {
  if (!spec.source_spec.empty()) {
    workload::SourceOverrides overrides;
    overrides.load = spec.load;
    overrides.count = spec.job_count;
    overrides.packet_len = packet_len;
    return workload::make_source(spec.source_spec, geom, overrides);
  }
  // The retired template (perfbench/ and the tests that fill it directly).
  switch (spec.kind) {
    case WorkloadKind::kStochastic: {
      workload::StochasticParams p = spec.stochastic;
      p.packet_len = packet_len;
      return std::make_unique<workload::StochasticSource>(
          p, geom, spec.job_count, workload::to_string(p.side_dist));
    }
    case WorkloadKind::kTrace: {
      if (spec.swf_path.empty())
        return std::make_unique<workload::TraceSource>(
            workload::ParagonModelParams{}, spec.replay, spec.load, geom, "real");
      // Shared parse: replications alias one immutable record vector.
      return std::make_unique<workload::TraceSource>(
          workload::load_swf_file_shared(spec.swf_path, geom.nodes()), spec.replay,
          spec.load, geom, "swf:" + spec.swf_path);
    }
  }
  throw std::invalid_argument("make_workload_source: bad workload kind");
}

std::vector<workload::Job> build_jobs(const WorkloadSpec& spec, const mesh::Geometry& geom,
                                      std::int32_t packet_len, std::uint64_t seed) {
  // An unbounded stream (stochastic job_count = 0) cannot be materialised;
  // the eager contract has always been "0 jobs" for that configuration.
  if (spec.source_spec.empty() && spec.kind == WorkloadKind::kStochastic &&
      spec.job_count == 0)
    return {};
  const auto source = make_workload_source(spec, geom, packet_len);
  if (!source->bounded())
    throw std::invalid_argument(
        "build_jobs: source '" + source->name() +
        "' is unbounded and cannot be materialised; cap it with jobs=N");
  source->reset(seed);
  std::vector<workload::Job> jobs;
  if (spec.job_count) jobs.reserve(spec.job_count);
  while (auto job = source->next_job()) jobs.push_back(std::move(*job));
  return jobs;
}

RunMetrics run_probed(const ExperimentConfig& cfg, obs::Recorder* recorder,
                      MetricsSink* sink) {
  if (cfg.cluster.has_value()) {
    const cluster::ClusterSpec& spec = *cfg.cluster;
    // Jobs are shaped for the first mesh's geometry; `workload.load` means
    // per-mesh offered load, so the fleet's arrival rate scales with its
    // aggregate capacity (load is linear in arrival rate for every source).
    const mesh::Geometry shape_geom = spec.meshes.front().geom;
    WorkloadSpec scaled = cfg.workload;
    scaled.load *= static_cast<double>(spec.total_nodes()) /
                   static_cast<double>(shape_geom.nodes());
    const auto source =
        make_workload_source(scaled, shape_geom, cfg.sys.net.packet_len);
    source->reset(cfg.seed);
    cluster::ClusterSimConfig ccfg;
    ccfg.spec = spec;
    ccfg.net = cfg.sys.net;
    ccfg.think_time = cfg.sys.think_time;
    ccfg.target_completions = cfg.sys.target_completions;
    ccfg.warmup_completions = cfg.sys.warmup_completions;
    ccfg.seed = cfg.seed;
    ccfg.max_events = cfg.sys.max_events;
    ccfg.recorder = recorder != nullptr ? recorder : cfg.sys.recorder;
    ccfg.default_alloc = cfg.allocator.label();
    ccfg.scheduler = cfg.scheduler;
    cluster::ClusterSim csim(std::move(ccfg));
    if (sink != nullptr) csim.set_metrics_sink(sink);
    return csim.run(*source);
  }
  const auto allocator = make_allocator(cfg.allocator, cfg.sys.geom, cfg.seed);
  const auto scheduler = core::make_scheduler(cfg.scheduler);
  const auto source =
      make_workload_source(cfg.workload, cfg.sys.geom, cfg.sys.net.packet_len);
  source->reset(cfg.seed);
  SystemConfig sys = cfg.sys;
  if (recorder != nullptr) sys.recorder = recorder;
  SystemSim sim(sys, *allocator, *scheduler);
  if (sink != nullptr) sim.set_metrics_sink(sink);
  return sim.run(*source);
}

RunMetrics run_once(const ExperimentConfig& cfg) {
  // The per-job record stream feeds the fairness analytics. Collection is
  // observation-only (MetricsSink contract), so attaching the sink cannot
  // change a single simulated event.
  stats::JobMetrics job_metrics;
  // --obs-probe: a per-replication fully-enabled recorder whose collected
  // data is thrown away — runs the recorder contract on real figure work.
  // Replication-local so concurrent grid cells never share recorder state.
  std::unique_ptr<obs::Recorder> probe;
  if (cfg.obs_probe) {
    probe = std::make_unique<obs::Recorder>();
    probe->enable_trace();
    probe->enable_telemetry(100.0);
  }
  RunMetrics m = run_probed(cfg, probe.get(), &job_metrics);
  m.jobs.wait = job_metrics.wait();
  m.jobs.turnaround = job_metrics.turnaround();
  m.jobs.slowdown = job_metrics.bounded_slowdown();
  m.jobs.starved = static_cast<double>(job_metrics.starvation().count());
  return m;
}

std::map<std::string, double> to_observations(const RunMetrics& m) {
  return {
      {"turnaround", m.turnaround.mean()},
      {"service", m.service.mean()},
      {"utilization", m.utilization},
      {"latency", m.packet_latency.mean()},
      {"blocking", m.packet_blocking.mean()},
      {"hops", m.packet_hops.mean()},
      {"queue_length", m.mean_queue_length},
      // Per-job fairness analytics (stats::JobMetrics over the JobRecord
      // stream). Excluded from the replication stopping rule — see
      // precision_observation_names().
      {"wait_mean", m.jobs.wait.mean},
      {"wait_p50", m.jobs.wait.p50},
      {"wait_p95", m.jobs.wait.p95},
      {"wait_p99", m.jobs.wait.p99},
      {"wait_max", m.jobs.wait.max},
      {"turnaround_p50", m.jobs.turnaround.p50},
      {"turnaround_p95", m.jobs.turnaround.p95},
      {"turnaround_p99", m.jobs.turnaround.p99},
      {"turnaround_max", m.jobs.turnaround.max},
      {"slowdown_p50", m.jobs.slowdown.p50},
      {"slowdown_p95", m.jobs.slowdown.p95},
      {"slowdown_p99", m.jobs.slowdown.p99},
      {"slowdown_max", m.jobs.slowdown.max},
      {"starved", m.jobs.starved},
      // Cluster observations (ClusterStats; all 0 on single-mesh runs).
      // Excluded from the replication stopping rule like the fairness
      // analytics — see precision_observation_names().
      {"util_spread", m.cluster.spread()},
      {"util_min", m.cluster.util_min},
      {"util_max", m.cluster.util_max},
      {"util_stddev", m.cluster.util_stddev},
      {"migrations", static_cast<double>(m.cluster.migrations)},
      {"migration_latency", m.cluster.migration_latency},
      {"stale_errors", static_cast<double>(m.cluster.stale_errors)},
  };
}

std::vector<std::string> precision_observation_names() {
  // The paper's aggregate metrics — exactly the observation set that existed
  // before the per-job analytics, so the 95 %/5 % stopping rule sees the
  // same accumulators it always has. Tail quantiles and starvation counts
  // are deliberately absent: a P99's relative error would inflate
  // replication counts (and shift every fixed-seed CSV) without improving
  // the means the figures plot.
  return {"turnaround", "service",      "utilization", "latency",
          "blocking",   "hops",         "queue_length"};
}

std::vector<std::string> known_metrics() {
  std::vector<std::string> out;
  for (const auto& [name, value] : to_observations(RunMetrics{})) out.push_back(name);
  return out;
}

AggregateResult run_replicated(const ExperimentConfig& cfg,
                               const stats::ReplicationPolicy& policy) {
  stats::ReplicationPolicy gated = policy;
  if (gated.precision_metrics.empty())
    gated.precision_metrics = precision_observation_names();
  stats::ReplicationController controller(gated);
  ExperimentConfig rep_cfg = cfg;
  for (std::uint64_t rep = 0; !controller.done(); ++rep) {
    rep_cfg.seed = des::substream_seed(cfg.seed, rep);
    // Unordered-map iteration order is irrelevant here: each metric is keyed.
    std::unordered_map<std::string, double> obs;
    for (const auto& [k, v] : to_observations(run_once(rep_cfg))) obs.emplace(k, v);
    controller.add_replication(obs);
  }
  AggregateResult out;
  out.replications = controller.replications();
  for (const std::string& name : controller.metric_names())
    out.metrics.emplace(name, controller.interval(name));
  return out;
}

}  // namespace procsim::core
