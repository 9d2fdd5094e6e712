#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "sched/fifo_base.hpp"

namespace procsim::sched {

/// Which backfilling discipline a BackfillScheduler runs.
struct BackfillOptions {
  /// false: EASY-style (aggressive) backfilling — Lifka's Extensible Argonne
  /// Scheduler, one reservation for the blocked head only. true:
  /// conservative backfilling — *every* queued job gets a reservation
  /// (computed against a processor-availability profile), and a job may
  /// start out of order only when doing so delays none of them.
  bool conservative{false};
  /// When the simulator provides a shape probe (SchedSnapshot::shape_fit),
  /// place reservations at instants where the blocked job's sub-mesh
  /// actually fits the projected occupancy — the running jobs' blocks
  /// released by then OR-ed back into the bitmap — instead of instants where
  /// merely enough nodes are free. Matters for the contiguous baselines,
  /// whose external fragmentation makes counts optimistic; without a probe
  /// (or for count-exact strategies) behaviour degrades gracefully to the
  /// count model.
  bool shape_aware{false};
};

/// Backfilling over the paper's FCFS base order, in two variants.
///
/// **EASY** (the default): when the head cannot be allocated, its
/// reservation ("shadow time") is the earliest instant the running jobs'
/// estimated completions free enough processors for it; each queued job's
/// known `demand` serves as the runtime estimate (the paper's SSD key — the
/// real service time remains an output of network contention, so estimates
/// are exactly as accurate as SSD's ordering key). A later job may overtake
/// the head only if it fits right now (the probe) and cannot delay the
/// reservation: it either finishes (by its own estimate) before the shadow
/// time, or it needs no more than the processors left over at the shadow
/// time after the head is seated.
///
/// **Conservative**: every pass rebuilds an availability profile (free
/// processors as a step function of time, fed by the running set's estimated
/// releases) and walks the queue in order, granting each job the earliest
/// profile slot that holds its processors for its estimated duration and
/// then subtracting that slot from the profile. A job is nominated iff its
/// own reserved start is *now* — so no nomination can push any
/// earlier-queued job's reservation back, the defining guarantee
/// (starvation-free by construction, at the cost of backfill opportunities
/// EASY would take).
///
/// Processor arithmetic is count-based, in the job's *compute* processor
/// count (QueuedJob::processors — what the non-contiguous strategies
/// actually allocate by) against the running jobs' exact held counts; exact
/// for Paging(0), MBS and Random, optimistic under external (contiguous
/// baselines) or internal (Paging(k>0), GABL) fragmentation. The shape_aware
/// option replaces the optimistic count at reservation instants with an
/// exact hypothetical-occupancy fit query where the simulator provides one —
/// reservations against *queued* jobs' hypothetical placements remain
/// count-based (nobody knows where they will land).
class BackfillScheduler final : public FifoBase {
 public:
  explicit BackfillScheduler(BackfillOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] std::optional<std::size_t> select(const AllocProbe& probe,
                                                  const SchedSnapshot& snap) override;

  void on_start(const QueuedJob& job, double now, std::int64_t allocated,
                const std::vector<mesh::SubMesh>& blocks) override;
  void on_complete(std::uint64_t job_id, double now) override;

  /// "backfill[:conservative][;shape]" — the registry spec grammar.
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const BackfillOptions& options() const noexcept { return opts_; }
  void clear() override;

  /// Reservation-keeping counters: a job's *first* reservation instant is
  /// remembered when it is placed, and its eventual start classifies it as
  /// honored (started no later than promised) or broken (started later —
  /// possible under EASY, whose single-reservation guarantee does not extend
  /// to jobs behind the head; conservative breaks none by construction).
  void export_counters(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const override;

 private:
  struct Running {
    double finish_estimate{0};  ///< start + demand
    std::uint64_t job_id{0};    ///< deterministic tie-breaker
    std::int64_t allocated{0};  ///< processors actually held
    std::vector<mesh::SubMesh> blocks;  ///< placement, for the shape probe
    friend bool operator<(const Running& a, const Running& b) {
      if (a.finish_estimate != b.finish_estimate)
        return a.finish_estimate < b.finish_estimate;
      return a.job_id < b.job_id;
    }
  };

  using RunningIt = std::multiset<Running>::const_iterator;

  /// The blocked head's EASY reservation: whether any prefix of the running
  /// set (in estimated-finish order) seats it, the running job that ends
  /// the shortest such prefix (the seating job), the instant it ends (the
  /// shadow time) and the processors free then.
  struct Shadow {
    bool reachable{false};
    RunningIt seat{};
    double shadow{0};
    std::int64_t avail{0};
  };
  /// The head and free count a kept shape-aware walk answers for. on_start
  /// and on_complete move the free count by the job's allocated count as
  /// they carry the walk across the change, so a snapshot that disagrees
  /// (an occupancy change nobody reported) gets a fresh walk.
  struct WalkKey {
    std::uint64_t head_id{0};
    std::int64_t free_processors{0};
    friend bool operator==(const WalkKey&, const WalkKey&) = default;
  };
  /// What a running-set change left open of the kept walk (see on_start).
  enum class Redo : std::uint8_t {
    kNone,        ///< the walk stands
    kFromSeat,    ///< a start after the seating job: probe from it on
    kBeforeSeat,  ///< a completion after it: probe only the steps before it
  };

  [[nodiscard]] std::optional<std::size_t> select_easy(const AllocProbe& probe,
                                                       const SchedSnapshot& snap);
  /// The walk itself: in full under Redo::kNone, else the part `redo`
  /// leaves open of walk_.
  [[nodiscard]] Shadow walk_running(const QueuedJob& head, const SchedSnapshot& snap,
                                    bool use_shape, Redo redo);
  [[nodiscard]] std::optional<std::size_t> select_conservative(
      const AllocProbe& probe, const SchedSnapshot& snap);

  BackfillOptions opts_;

  /// Kept ordered by estimated finish so the reservation walks are plain
  /// in-order traversals — no per-pass copy + sort; slot_ locates a job's
  /// entry for the O(log R) on_complete erase.
  std::multiset<Running> running_;
  std::unordered_map<std::uint64_t, RunningIt> slot_;

  /// The last shape-aware walk, the key it answers for, and the part of it
  /// the running-set changes since have left open; select_easy reuses it
  /// while the key matches.
  std::optional<WalkKey> walk_key_;
  Shadow walk_;
  Redo redo_{Redo::kNone};

  /// job_id -> first reserved start instant (see export_counters).
  std::unordered_map<std::uint64_t, double> first_reservation_;
  std::uint64_t reservations_honored_{0};
  std::uint64_t reservations_broken_{0};

  // select() scratch (cleared per pass, capacity reused).
  std::vector<mesh::SubMesh> released_scratch_;
};

}  // namespace procsim::sched
