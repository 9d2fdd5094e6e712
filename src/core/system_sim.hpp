#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/job_arena.hpp"
#include "core/metrics_sink.hpp"
#include "des/simulator.hpp"
#include "network/wormhole_network.hpp"
#include "sched/scheduler.hpp"
#include "stats/job_metrics.hpp"
#include "stats/time_weighted.hpp"
#include "stats/welford.hpp"
#include "workload/job.hpp"
#include "workload/source.hpp"

namespace procsim::obs {
class Recorder;
}  // namespace procsim::obs

namespace procsim::core {

/// Machine- and run-level configuration of one simulation.
struct SystemConfig {
  mesh::Geometry geom{16, 22};       ///< the paper's W×L partition
  network::NetworkParams net{};      ///< st = 3, P_len = 8 by default
  /// Cycles a processor computes between delivering one of its messages and
  /// injecting the next (blocking-send pacing; 0 = send immediately).
  double think_time{0};
  std::size_t target_completions{1000};  ///< stop after this many (0 = all jobs)
  std::size_t warmup_completions{0};     ///< completions excluded from statistics
  /// Unused: kept only for perfbench/ (see des::EventEngine).
  std::uint64_t seed{1};
  std::uint64_t max_events{2'000'000'000};  ///< runaway guard
  /// Unused: kept only for perfbench/ (see des::EventEngine).
  des::EventEngine event_engine{des::EventEngine::kHeap};
  /// Observability attach point (null = off). Observation-only like the
  /// MetricsSink: attaching cannot change a simulated event, and every
  /// hot-path hook is a null-pointer check when detached (obs::Recorder).
  /// Non-owning; the recorder outlives every run() it observes.
  obs::Recorder* recorder{nullptr};
};

/// Per-job wait/slowdown distribution summary — the fairness view the means
/// above hide. Filled by experiment::run_once, which attaches a
/// stats::JobMetrics sink to the record stream; zero when a SystemSim is
/// driven directly without one.
struct JobDistributions {
  stats::QuantileSummary wait;        ///< arrival -> allocation per job
  stats::QuantileSummary turnaround;  ///< arrival -> departure per job
  stats::QuantileSummary slowdown;    ///< bounded slowdown (stretch)
  double starved{0};  ///< jobs waiting > starvation_factor × median wait
};

/// Cluster-level extras, filled only by cluster::ClusterSim (meshes == 0 on
/// a single-mesh run, and every derived observation reads 0). The per-mesh
/// utilization spread is the load-balance quality signal; the migration and
/// staleness tallies characterize the dispatcher.
struct ClusterStats {
  std::size_t meshes{0};          ///< 0 = not a cluster run
  double util_min{0};             ///< min over per-mesh utilizations
  double util_max{0};
  double util_mean{0};            ///< unweighted mean over meshes
  double util_stddev{0};
  std::uint64_t migrations{0};    ///< jobs stolen between meshes
  double migration_latency{0};    ///< total modeled latency paid
  std::uint64_t stale_errors{0};  ///< dispatches to a non-shortest queue

  [[nodiscard]] double spread() const noexcept { return util_max - util_min; }
};

/// Everything one run measures — the paper's five performance parameters
/// plus diagnostics.
struct RunMetrics {
  stats::Welford turnaround;       ///< arrival -> departure per job
  stats::Welford service;          ///< allocation -> departure per job
  stats::Welford packet_latency;   ///< per delivered packet
  stats::Welford packet_blocking;  ///< per delivered packet
  stats::Welford packet_hops;      ///< mesh links traversed per packet
  double utilization{0};           ///< time-averaged allocated fraction
  double mean_queue_length{0};
  std::uint64_t completed{0};
  double makespan{0};
  std::uint64_t events{0};
  std::uint64_t packets{0};
  JobDistributions jobs;           ///< per-job fairness summary (see above)
  ClusterStats cluster;            ///< cluster runs only (see ClusterStats)
};

/// Couples scheduler, allocator, wormhole network and a job stream into one
/// discrete-event simulation (the ProcSimity role).
///
/// Lifecycle of a job: arrival -> queue -> (scheduling pass nominates it +
/// allocator success) -> processors held, packets injected -> last delivery
/// -> processors released, next scheduling round. A job's service time is an
/// *output*: the time its communication takes under the contention its
/// placement creates.
class SystemSim {
 public:
  SystemSim(SystemConfig cfg, alloc::Allocator& allocator, sched::Scheduler& scheduler);

  /// External-clock mode (the cluster layer): this mesh shares `clock` with
  /// its siblings instead of owning a simulator. The caller owns the event
  /// loop — begin_external_run() / submit() / finish_external_run() replace
  /// run(); the caller resets and runs `clock` itself.
  SystemSim(SystemConfig cfg, alloc::Allocator& allocator, sched::Scheduler& scheduler,
            des::Simulator* clock);

  /// Pinned in place: the clock's handler table holds `this`.
  SystemSim(const SystemSim&) = delete;
  SystemSim& operator=(const SystemSim&) = delete;

  /// Runs a streaming job source to exhaustion (or the completion target).
  /// The source is reset-ready (caller calls source.reset(seed) first); jobs
  /// are pulled one arrival ahead, so a stream never has to exist in memory
  /// as a whole. The allocator and scheduler are reset first; metrics cover
  /// completions after the warmup threshold. An unbounded source is stopped
  /// by `target_completions` (or, as a last resort, `max_events`).
  [[nodiscard]] RunMetrics run(workload::Source& source);

  /// Convenience wrapper: streams an eager job vector (must be sorted by
  /// arrival time) through the source path.
  [[nodiscard]] RunMetrics run(const std::vector<workload::Job>& jobs);

  /// Attaches (or, with nullptr, detaches) the per-job record stream
  /// observer. The sink outlives every run() it observes; it receives one
  /// JobRecord per measured completion and can never influence the
  /// simulation (see MetricsSink).
  void set_metrics_sink(MetricsSink* sink) noexcept { sink_ = sink; }

  // ---- External-clock (cluster) interface ------------------------------
  // The owner of the shared clock drives these; the single-mesh run() path
  // never touches them, so its event trajectory is unchanged.

  /// Per-run reset of everything except the shared clock (which the cluster
  /// resets once). Call before the first submit() of a run.
  void begin_external_run();

  /// Injects one job at the current clock time — the dispatcher's hand-off.
  /// Arrival bookkeeping and scheduling are identical to a source arrival.
  void submit(workload::Job job);

  /// Computes this mesh's end-of-run metrics at the shared clock's final
  /// time. Skips the clock-level counter pulls (sim_events, run_wall_s) —
  /// the cluster accounts those once.
  [[nodiscard]] RunMetrics finish_external_run();

  /// Removes and returns the most recently queued job (the work-stealing
  /// victim's donation), or nullopt when the queue is empty. Leaves every
  /// running job untouched; updates the queue-length gauge.
  [[nodiscard]] std::optional<workload::Job> steal_last_queued();

  /// The job steal_last_queued() would remove, without removing it — the
  /// cluster checks the candidate fits the receiver before committing the
  /// steal. Null when the queue is empty.
  [[nodiscard]] const workload::Job* peek_last_queued() const;

  /// Fresh load view for dispatch decisions.
  [[nodiscard]] std::size_t queue_depth() const noexcept { return scheduler_.size(); }
  [[nodiscard]] std::size_t running_jobs() const noexcept {
    return arena_.active() - scheduler_.size();
  }
  [[nodiscard]] std::int64_t free_processors() const noexcept {
    return static_cast<std::int64_t>(allocator_.free_processors());
  }
  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t completions() const noexcept { return completed_; }

  /// Starts the measured window now: the busy-processor and queue-length
  /// averages restart from the current values, and the packet statistics
  /// gathered so far are dropped. A mesh calls it at its own warmup
  /// completion; the cluster calls it on every member at the fleet's.
  void restart_measurement();

  /// Completion hook for the cluster layer: called once per completion (any
  /// warmup gating is the caller's) with the full JobRecord, after the mesh
  /// has fully accounted the completion and released the job. Raw (fn, ctx)
  /// like the delivery sink — no type-erased std::function on this path.
  using CompletionHook = void (*)(void* ctx, SystemSim& mesh, const JobRecord& rec);
  void set_completion_hook(CompletionHook fn, void* ctx) noexcept {
    hook_ = fn;
    hook_ctx_ = ctx;
  }

 private:
  /// Shared constructor tail: registers the event kinds on the clock and
  /// builds the network once (begin_run resets it per replication).
  void wire();
  // Event handlers. Payloads: complete a = arena slot; inject a = slot,
  // b = src << 32 | dst.
  static void on_arrival_event(void* ctx, std::uint32_t, std::uint64_t);
  static void on_complete_event(void* ctx, std::uint32_t slot, std::uint64_t);
  static void on_inject_event(void* ctx, std::uint32_t slot, std::uint64_t b);
  static void on_telemetry_event(void* ctx, std::uint32_t, std::uint64_t);
  /// run()'s per-run reset minus the clock reset (shared in cluster mode).
  void begin_run();
  /// End-of-run metric finalization at time `end`; `own_clock` gates the
  /// clock-level counter pulls and the wall timer.
  void finalize_run(double end, bool own_clock,
                    std::chrono::steady_clock::time_point wall_start);
  /// Schedules the source's next arrival instant (if any).
  void pump_arrival();
  void on_arrival(workload::Job job);
  /// The waiting job behind a queue entry; throws if the record is missing.
  [[nodiscard]] const workload::Job& queued_job(std::uint64_t job_id) const;
  /// One transactional scheduling pass (see Scheduler::select), run after
  /// every arrival and every completion.
  void try_schedule();
  void start_job(JobArena::Slot slot, alloc::Placement placement);
  void on_delivery(const network::Delivery& d);
  void complete_job(JobArena::Slot slot);
  /// Takes one telemetry snapshot and, while jobs are resident or arrivals
  /// pending, schedules the next (the drain guard: bounded runs still end).
  void sample_telemetry();
  [[nodiscard]] bool measuring() const noexcept {
    return completed_ >= cfg_.warmup_completions;
  }

  SystemConfig cfg_;
  alloc::Allocator& allocator_;
  sched::Scheduler& scheduler_;
  MetricsSink* sink_{nullptr};  ///< optional per-job record observer
  obs::Recorder* rec_{nullptr};  ///< cfg_.recorder; hot-path null check
  CompletionHook hook_{nullptr};  ///< cluster completion hook (null = off)
  void* hook_ctx_{nullptr};

  des::Simulator own_sim_;  ///< the single-mesh clock; idle in cluster mode
  des::Simulator* sim_;     ///< &own_sim_, or the cluster's shared clock
  std::unique_ptr<network::WormholeNetwork> net_;  ///< built once, reset per run
  des::EventKind kind_arrival_{0};
  des::EventKind kind_complete_{0};
  des::EventKind kind_inject_{0};
  des::EventKind kind_telemetry_{0};

  // Per-run state (reset in begin_run()).
  workload::Source* source_{nullptr};  ///< the run's job stream (non-owning)
  /// Every resident job (queued or running): slot-reused, SoA hot fields,
  /// slot index == network tag. Messages one processor sends are paced
  /// one-at-a-time (blocking sends, see StreamSet); all of a job's sources
  /// stream concurrently.
  JobArena arena_;
  /// Node -> index of its stream in the job running on it (StreamSet::build
  /// writes it, on_delivery reads it). Sized once per mesh; stale entries
  /// are told apart by the job's source list, so nothing resets it.
  std::vector<std::uint32_t> stream_of_node_;
  stats::TimeWeighted busy_procs_;
  stats::TimeWeighted queue_len_;
  RunMetrics metrics_;
  std::uint64_t completed_{0};
  std::uint64_t seq_{0};
  double last_completion_{0};  ///< kept while a recorder is attached
};

}  // namespace procsim::core
