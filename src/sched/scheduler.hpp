#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mesh/submesh.hpp"

namespace procsim::sched {

/// A job waiting for processors, as the scheduler sees it.
struct QueuedJob {
  std::uint64_t job_id{0};
  double arrival{0};      ///< submission time
  double demand{0};       ///< SSD key: known service demand
  std::int64_t area{0};   ///< bounding w×l footprint (the size-ordering key)
  std::int32_t width{0};  ///< requested sub-mesh width (the probes' request)
  std::int32_t length{0}; ///< requested sub-mesh length
  /// Processors the job actually computes on (<= area for trace-shaped
  /// requests) — what reservation arithmetic must count, since the
  /// non-contiguous strategies allocate by this number, not the bounding box.
  std::int32_t processors{0};
  std::uint64_t seq{0};   ///< arrival sequence, the universal tie-breaker
};

/// Allocatability probe the simulator hands to select(): true when the job
/// could be allocated at this instant. Probing never commits — it is the
/// allocator's exact feasibility test (Allocator::can_allocate), answered
/// from the occupancy index without touching any state, so a discipline may
/// test many non-head jobs per scheduling pass cheaply.
///
/// Contract: the answer reads only the job's request (width, length,
/// processors) and the free set, and it never turns from no to yes as the
/// free set shrinks. The probing disciplines (FifoBase) remember a refusal
/// on these properties until the free set grows: Scheduler::on_complete
/// reports that, and so does a snapshot with more free processors than the
/// last select saw. A pass then asks again only about jobs the probe has
/// not refused since. So every probe handed to one scheduler answers for
/// the same allocator; a probe reading anything else (a clock, a call
/// counter, a different allocator per call) breaks the discipline.
using AllocProbe = std::function<bool(const QueuedJob&)>;

/// The probe-at-instant companion of AllocProbe: true when the job could be
/// allocated once the given currently-held blocks (running jobs projected to
/// have finished by the probed instant) were released. Side-effect free like
/// AllocProbe — the allocator answers from a hypothetical occupancy bitmap
/// (Allocator::can_allocate_with_free) without committing anything. Shape-
/// aware backfilling uses it to place reservations at instants where the
/// head's sub-mesh actually *fits*, not merely where enough nodes are free.
///
/// Contract, for a given job: the answer depends only on the union of the
/// free nodes and the released blocks (cutting or reordering the blocks
/// changes nothing), it never turns from yes to no as that union grows, and
/// a job the AllocProbe rejects is rejected with an empty list too. EASY
/// backfilling carries its shape-aware reservation walk across
/// Scheduler::on_start and on_complete on these properties: a start moves
/// nodes from the free set into a running job's release, a completion adds
/// them to the free set, and the walk keeps every answer such a move cannot
/// change. A probe reading anything else (a clock, a counter, a different
/// allocator per call) breaks the discipline.
using ShapeProbe =
    std::function<bool(const QueuedJob&, const std::vector<mesh::SubMesh>&)>;

/// Machine-state snapshot for one select() step (reservation-aware
/// disciplines need the clock and the free-processor count; the simple
/// orderings ignore it). `shape_fit`, when the simulator provides it, lets a
/// shape-aware discipline probe hypothetical future occupancies; it is
/// non-owning and valid only for the duration of the select() call.
struct SchedSnapshot {
  double now{0};
  std::int64_t free_processors{0};
  const ShapeProbe* shape_fit{nullptr};
};

/// Queueing discipline behind the transactional scheduling pass.
///
/// The simulator repeatedly asks `select(probe, snap)` for the queue
/// position of the job to start next, attempts the real allocation, and on
/// success removes the job with `take(pos)`; the pass ends when select()
/// returns nullopt or an allocation attempt fails.
///
/// The paper's blocking semantics (FCFS/SSD: "allocation attempts stop when
/// they fail for the current queue head") fall out of the simplest
/// implementation — return position 0 without consulting the probe and let
/// the simulator's failed attempt end the pass. Disciplines that go beyond
/// the paper (lookahead windows, backfilling) probe non-head jobs and only
/// return positions the probe approved.
///
/// `job_at` exposes the queue in discipline order (position 0 is the head),
/// so a pass can inspect any candidate without consuming it. `on_start` /
/// `on_complete` keep reservation-aware disciplines' view of the running set
/// current, and `on_complete` ends the probing disciplines' remembered
/// refusals (AllocProbe); the simple orderings inherit the no-op defaults.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual void enqueue(const QueuedJob& job) = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// The queue in discipline order: position 0 is the job the discipline
  /// would start first. Precondition: pos < size().
  [[nodiscard]] virtual QueuedJob job_at(std::size_t pos) const = 0;

  /// One step of the transactional scheduling pass: the position of the job
  /// to try to start now, or nullopt to end the pass. A discipline that
  /// returns a position it probed guarantees the probe approved it; a
  /// discipline that never probes (the blocking orderings) relies on the
  /// simulator's real attempt instead.
  [[nodiscard]] virtual std::optional<std::size_t> select(const AllocProbe& probe,
                                                          const SchedSnapshot& snap) = 0;

  /// Removes and returns the job at `pos`. Precondition: pos < size().
  virtual QueuedJob take(std::size_t pos) = 0;

  /// Notification that `job` started on `allocated` processors at `now`
  /// (allocated may exceed job.area: internal fragmentation); `blocks` are
  /// the placement's rectangles, which reservation-aware disciplines retain
  /// so a future release instant can be probed by shape. Default no-op.
  virtual void on_start(const QueuedJob& job, double now, std::int64_t allocated,
                        const std::vector<mesh::SubMesh>& blocks) {
    (void)job;
    (void)now;
    (void)allocated;
    (void)blocks;
  }
  /// Notification that the job with `job_id` released its processors at
  /// `now`: the free set grew. Every release must be reported, since a
  /// probing discipline keeps its refusals until then. Default no-op.
  virtual void on_complete(std::uint64_t job_id, double now) {
    (void)job_id;
    (void)now;
  }

  /// Convenience view of position 0; nullopt when empty.
  [[nodiscard]] std::optional<QueuedJob> head() const {
    if (empty()) return std::nullopt;
    return job_at(0);
  }

  /// Canonical registry name (round-trips through make_scheduler).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Appends discipline-specific observability counters as (name, value)
  /// pairs — consumed by the counter registry at end of run (obs::Counters
  /// extras). Default: none. Deliberately takes a plain vector so base
  /// schedulers stay free of any obs dependency.
  virtual void export_counters(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const {
    (void)out;
  }

  /// Empties the queue and any running-set bookkeeping (fresh replication).
  virtual void clear() = 0;
};

}  // namespace procsim::sched
