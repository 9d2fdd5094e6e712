#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/dispatcher.hpp"
#include "core/system_sim.hpp"
#include "des/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/welford.hpp"
#include "workload/source.hpp"

namespace procsim::cluster {

/// Cluster-wide run configuration — the SystemConfig of the fleet. Per-mesh
/// geometry/allocator come from the spec; everything here is shared.
struct ClusterSimConfig {
  ClusterSpec spec{};
  network::NetworkParams net{};     ///< one network model per mesh, same knobs
  double think_time{0};
  std::size_t target_completions{1000};  ///< cluster-wide stop (0 = drain)
  std::size_t warmup_completions{0};     ///< cluster-wide warmup threshold
  std::uint64_t seed{1};
  std::uint64_t max_events{2'000'000'000};
  /// Unused: kept only for perfbench/ (see des::EventEngine).
  des::EventEngine event_engine{des::EventEngine::kHeap};
  obs::Recorder* recorder{nullptr};
  /// Allocator registry name used by meshes whose group carries none.
  std::string default_alloc{"GABL"};
  sched::SchedSpec scheduler{};     ///< each mesh gets its own instance
};

/// N SystemSim meshes under ONE event clock behind a pluggable Dispatcher —
/// the fleet-scale layer. Jobs stream from a single Source; every arrival is
/// routed by the dispatch policy to a mesh it fits (width<=W, length<=L);
/// each mesh then schedules, allocates and routes exactly as a single-mesh
/// run does. With migrate=steal, a mesh going idle (empty queue, free
/// processors, no inbound job already in flight) steals the most recently
/// queued job from the deepest-queued sibling, paying the modeled migration
/// latency before the job re-queues — the job is moved whole (one resident
/// copy ever, never duplicated, never lost).
///
/// Determinism: one clock, one (time, seq) pop order, one RNG substream per
/// mesh — fixed-seed cluster runs are bit-identical everywhere, so the
/// serial-vs-threaded CSV byte contract holds for cluster sweeps too.
class ClusterSim {
 public:
  explicit ClusterSim(ClusterSimConfig cfg);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Runs the stream to the cluster-wide completion target (or drain).
  /// Returns cluster-aggregated metrics: turnaround/service over all
  /// measured completions, merged packet statistics, node-weighted
  /// utilization, and RunMetrics::cluster filled with the per-mesh spread
  /// and dispatcher/migration tallies.
  [[nodiscard]] core::RunMetrics run(workload::Source& source);

  /// Cluster-level per-job record observer (observation-only, like
  /// SystemSim's): one JobRecord per measured completion, any mesh.
  void set_metrics_sink(core::MetricsSink* sink) noexcept { sink_ = sink; }

  [[nodiscard]] std::size_t meshes() const noexcept { return meshes_.size(); }
  [[nodiscard]] const core::SystemSim& mesh(std::size_t i) const { return *meshes_[i]; }

 private:
  struct MeshUnit;  ///< allocator + scheduler + SystemSim, one per mesh

  // Event handlers. Migration payload: a = migrating_ slot, b = receiver.
  static void on_arrival_event(void* ctx, std::uint32_t, std::uint64_t);
  static void on_migration_event(void* ctx, std::uint32_t slot, std::uint64_t receiver);
  void pump_arrival();
  void dispatch(workload::Job job);
  /// The completion hook target (see SystemSim::CompletionHook).
  static void on_mesh_complete(void* ctx, core::SystemSim& mesh,
                               const core::JobRecord& rec);
  void handle_completion(core::SystemSim& mesh, const core::JobRecord& rec);
  /// Steals for `receiver` if it is idle and a donor exists (migrate=steal).
  void maybe_migrate(std::size_t receiver);
  [[nodiscard]] bool measuring() const noexcept {
    return completed_ >= cfg_.warmup_completions;
  }

  ClusterSimConfig cfg_;
  des::Simulator sim_;  ///< the one shared clock
  des::EventKind kind_arrival_;
  des::EventKind kind_migration_;
  std::vector<std::unique_ptr<MeshUnit>> meshes_raw_;
  std::vector<core::SystemSim*> meshes_;  ///< flat view of meshes_raw_
  std::unique_ptr<Dispatcher> dispatcher_;
  core::MetricsSink* sink_{nullptr};

  // Per-run state.
  workload::Source* source_{nullptr};
  std::vector<MeshLoadView> loads_;        ///< scratch for dispatch decisions
  std::vector<std::size_t> eligible_;      ///< scratch for dispatch decisions
  std::vector<std::int32_t> inbound_;      ///< in-flight migrations per mesh
  /// Jobs travelling between meshes, slot-reused; a migration event names
  /// its slot. The job's one resident copy lives here while in flight.
  std::vector<workload::Job> migrating_;
  std::vector<std::uint32_t> migrating_free_;
  stats::Welford turnaround_;
  stats::Welford service_;
  std::uint64_t completed_{0};
  std::uint64_t migrations_{0};
  double migration_latency_paid_{0};
  std::uint64_t stale_errors_{0};
};

}  // namespace procsim::cluster
