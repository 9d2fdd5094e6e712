#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/system_sim.hpp"
#include "mesh/page_table.hpp"
#include "sched/registry.hpp"
#include "stats/replication.hpp"
#include "workload/source.hpp"
#include "workload/stochastic.hpp"
#include "workload/trace_replay.hpp"

namespace procsim::core {

/// Thin wrapper over an allocator registry name — the experiment layer's
/// allocator axis IS the registry's, one construction path (the legacy
/// AllocatorKind enum is gone). `canonical` is always a spelling
/// alloc::parse_allocator_name accepts and normalizes; label() returns it
/// verbatim and parse_allocator_spec(label()) round-trips (pinned by test).
struct AllocatorSpec {
  std::string canonical{"GABL"};
  /// Page-indexing curve for the Paging family; not part of the name (same
  /// as alloc::AllocatorParams).
  mesh::PageIndexing paging_indexing{mesh::PageIndexing::kRowMajor};

  AllocatorSpec() = default;
  /// Validating constructor: throws std::invalid_argument (listing the known
  /// allocators) unless `name` parses; stores the canonical spelling.
  explicit AllocatorSpec(const std::string& name);

  [[nodiscard]] std::string label() const { return canonical; }

  friend bool operator==(const AllocatorSpec& a, const AllocatorSpec& b) {
    return a.canonical == b.canonical && a.paging_indexing == b.paging_indexing;
  }
};

/// Delegates to the alloc/sched registries (alloc::make_allocator,
/// sched::make_scheduler): spec.label() is a registry name by construction.
[[nodiscard]] std::unique_ptr<alloc::Allocator> make_allocator(const AllocatorSpec& spec,
                                                               mesh::Geometry geom,
                                                               std::uint64_t seed);
/// sched::Policy converts implicitly, so both the paper's ordered policies
/// and the registry specs (lookahead:k, backfill) resolve here.
[[nodiscard]] std::unique_ptr<sched::Scheduler> make_scheduler(
    const sched::SchedSpec& spec);

/// Registry-name -> AllocatorSpec (case-insensitive, "Paging(k)" parsed);
/// nullopt for unknown names. Inverse of AllocatorSpec::label().
[[nodiscard]] std::optional<AllocatorSpec> parse_allocator_spec(const std::string& name);

/// Retired workload template: every driver describes its workload as a
/// `source_spec`. The enum and the template fields of WorkloadSpec
/// (`kind`, `stochastic`, `replay`, `swf_path`) survive only because
/// perfbench/ and the tests that fill them directly (the goldens among
/// them) still do; make_workload_source and build_jobs are their only
/// readers. Delete them with the next change to the benchmark. That change
/// moves `fleet_steal_4x64`'s reference statistics: the template's
/// stochastic branch reads `stochastic.load`, which run_probed's per-mesh
/// scaling of `load` does not reach.
enum class WorkloadKind { kStochastic, kTrace };

struct WorkloadSpec {
  /// A `workload::make_source` spec ("uniform", "exponential", "real",
  /// "swf:trace.swf", "saturation;n=5000", "bursty;b=8", ...). When empty,
  /// the retired template below describes the workload (see WorkloadKind).
  std::string source_spec;
  /// Driver-level overrides where the spec does not pin the key: the
  /// offered load (`--loads` sweep axes; per mesh on a fleet) and the
  /// stream length (`--jobs`, `--fast`; trace kinds: the replay prefix,
  /// 0 = the whole trace).
  double load{0.01};
  std::size_t job_count{1000};

  // Retired template (perfbench/ only): `job_count` and `load` serve it
  // too; the trace family replays the synthetic Paragon model, or
  // `swf_path` when that is non-empty.
  WorkloadKind kind{WorkloadKind::kStochastic};
  workload::StochasticParams stochastic{};
  workload::TraceReplayParams replay{};
  std::string swf_path;
};

/// One experiment point: machine + strategy pair + workload + seed.
struct ExperimentConfig {
  SystemConfig sys{};
  AllocatorSpec allocator{};
  sched::SchedSpec scheduler{};  ///< canonical registry spec; default FCFS
  WorkloadSpec workload{};
  /// The fleet axis: when set, the run is a cluster::ClusterSim over the
  /// spec's meshes instead of one SystemSim over sys.geom (which is then
  /// ignored except as workload shaping fallback — jobs are shaped for the
  /// cluster's first mesh, and `workload.load` stays the *per-mesh* offered
  /// load: the cluster path scales the source's arrival rate by
  /// total_nodes/first_mesh_nodes). `allocator` is the default for meshes
  /// whose group names none.
  std::optional<cluster::ClusterSpec> cluster;
  std::uint64_t seed{1};
  /// Attach a throwaway fully-enabled obs::Recorder (trace + telemetry) to
  /// every replication, discarding what it collects. Exists to *exercise*
  /// the observation-only contract on real figure runs (--obs-probe): the
  /// CSVs must come out byte-identical with this on.
  bool obs_probe{false};

  [[nodiscard]] std::string series_label() const;
};

/// Builds the streaming job source one replication runs against: the
/// registry source of `spec.source_spec`, with `load` and `job_count` as its
/// overrides, or the retired template when that is empty. The caller seeds
/// it (`source->reset(seed)`) before handing it to SystemSim — the
/// replication seed is `des::substream_seed(base, rep)`, so serial and
/// threaded replication schedules see bit-identical streams.
[[nodiscard]] std::unique_ptr<workload::Source> make_workload_source(
    const WorkloadSpec& spec, const mesh::Geometry& geom, std::int32_t packet_len);

/// Materialises the workload's job stream for one replication — a drain of
/// `make_workload_source` kept for tests and tools that want the eager
/// vector; the simulation path streams instead.
[[nodiscard]] std::vector<workload::Job> build_jobs(const WorkloadSpec& spec,
                                                    const mesh::Geometry& geom,
                                                    std::int32_t packet_len,
                                                    std::uint64_t seed);

/// Runs a single replication end to end.
[[nodiscard]] RunMetrics run_once(const ExperimentConfig& cfg);

/// run_once's engine with explicit observability wiring: builds the
/// allocator/scheduler/source for `cfg`, attaches `recorder` (overriding
/// cfg.sys.recorder when non-null) and `sink` (when non-null), and runs one
/// replication. This is how tools instrument a run — procsim_sweep's
/// --telemetry/--counters/--trace/--job-records all lower onto it — while
/// run_once itself stays the uninstrumented figure path. On a fleet it
/// scales `workload.load` from per-mesh to fleet-wide. A retired template
/// config's stochastic branch reads `stochastic.load` and so runs unscaled,
/// as `fleet_steal_4x64`'s reference pins (see WorkloadKind).
[[nodiscard]] RunMetrics run_probed(const ExperimentConfig& cfg,
                                    obs::Recorder* recorder, MetricsSink* sink);

/// Scalar per-replication observations, keyed by the metric names used
/// throughout the benches: the paper's aggregates (turnaround, service,
/// utilization, latency, blocking, hops, queue_length) plus the per-job
/// fairness analytics (wait_mean/p50/p95/p99/max, turnaround_p50/p95/p99/max,
/// slowdown_p50/p95/p99/max, starved).
[[nodiscard]] std::map<std::string, double> to_observations(const RunMetrics& m);

/// The metric names to_observations emits — what run_grid/run_figure accept;
/// drivers validate --metric against this before spending any compute.
[[nodiscard]] std::vector<std::string> known_metrics();

/// The subset of observation names the replication stopping rule gates on:
/// the paper's aggregate metrics, exactly as before the per-job analytics
/// existed. run_replicated pins ReplicationPolicy::precision_metrics to this
/// set when the caller left it empty, so quantile/starvation observations
/// ride along without ever changing a cell's replication count.
[[nodiscard]] std::vector<std::string> precision_observation_names();

/// Replicated experiment: reruns with per-replication RNG substream seeds
/// (des::substream_seed) until the policy's 95 % / 5 % precision target
/// (paper §5) is met or the cap is reached. Replications run one after
/// another; concurrency lives one level up, in run_grid's cell farm.
struct AggregateResult {
  std::map<std::string, stats::Interval> metrics;
  std::uint64_t replications{0};
};

[[nodiscard]] AggregateResult run_replicated(const ExperimentConfig& cfg,
                                             const stats::ReplicationPolicy& policy);

}  // namespace procsim::core
