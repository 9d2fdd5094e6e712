#include "sched/backfill.hpp"

#include <algorithm>
#include <limits>

namespace procsim::sched {

namespace {

/// Free processors as a right-continuous step function of time: avail(t) is
/// the value of the last step at or before t, the final step extending to
/// infinity. Built per conservative pass from the running set's estimated
/// releases; reservations subtract capacity over their interval.
class CapacityProfile {
 public:
  CapacityProfile(double now, std::int64_t avail) { steps_.push_back({now, avail}); }

  /// Capacity returning to the pool at `t` (>= the origin), e.g. a running
  /// job's estimated release. Must be fed in non-decreasing `t` order.
  void add_release(double t, std::int64_t procs) {
    if (steps_.back().t == t) {
      steps_.back().avail += procs;
      return;
    }
    steps_.push_back({t, steps_.back().avail + procs});
  }

  /// Earliest start >= `from` at which `procs` processors stay available for
  /// `duration`. Always exists: the final step has every reservation-free
  /// processor back (a reservation-only subtraction ends).
  [[nodiscard]] double earliest_fit(double from, std::int64_t procs,
                                    double duration) const {
    std::size_t i = step_at(from);
    for (;;) {
      const double start = std::max(from, steps_[i].t);
      const double end = start + duration;
      // Scan the steps the interval [start, end) overlaps.
      std::size_t j = i;
      bool ok = steps_[i].avail >= procs;
      while (ok && j + 1 < steps_.size() && steps_[j + 1].t < end) {
        ++j;
        ok = steps_[j].avail >= procs;
      }
      if (ok) return start;
      // Restart after the violating step.
      i = j + 1;
      if (i >= steps_.size()) return steps_.back().t;  // unreachable by contract
    }
  }

  /// Subtracts `procs` over [t, t + duration) — a reservation.
  void reserve(double t, double duration, std::int64_t procs) {
    if (duration <= 0 || procs <= 0) return;
    split_at(t);
    split_at(t + duration);
    for (std::size_t i = step_at(t); i < steps_.size() && steps_[i].t < t + duration;
         ++i)
      steps_[i].avail -= procs;
  }

 private:
  struct Step {
    double t;
    std::int64_t avail;
  };

  /// Index of the step active at `t` (t >= origin by construction).
  [[nodiscard]] std::size_t step_at(double t) const {
    std::size_t i = 0;
    while (i + 1 < steps_.size() && steps_[i + 1].t <= t) ++i;
    return i;
  }

  void split_at(double t) {
    if (t <= steps_.front().t) return;
    const std::size_t i = step_at(t);
    if (steps_[i].t == t) return;
    steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  Step{t, steps_[i].avail});
  }

  std::vector<Step> steps_;
};

}  // namespace

std::optional<std::size_t> BackfillScheduler::select(const AllocProbe& probe,
                                                     const SchedSnapshot& snap) {
  return opts_.conservative ? select_conservative(probe, snap)
                            : select_easy(probe, snap);
}

std::optional<std::size_t> BackfillScheduler::select_easy(const AllocProbe& probe,
                                                          const SchedSnapshot& snap) {
  if (empty()) return std::nullopt;
  if (fits_now(probe, snap, 0)) return 0;
  const QueuedJob& head = queued(0);
  const bool use_shape = opts_.shape_aware && snap.shape_fit != nullptr;

  // A shape-aware walk pays one hypothetical-occupancy probe per release it
  // reaches, and every pass behind a blocked head (one per arrival, start
  // and completion) asks for it again. So the walk is kept for the same
  // head and free count: on_start and on_complete carry it across the
  // running-set change they report and leave open only the steps that
  // change can move. The count walk is cheap and reruns.
  const WalkKey key{head.job_id, snap.free_processors};
  const bool kept = use_shape && walk_key_ == key;
  if (!kept || redo_ != Redo::kNone)
    walk_ = walk_running(head, snap, use_shape, kept ? redo_ : Redo::kNone);
  walk_key_ = use_shape ? std::optional<WalkKey>(key) : std::nullopt;
  redo_ = Redo::kNone;
  const bool reachable = walk_.reachable;
  const double shadow = walk_.shadow;
  // When even draining every running job cannot seat the head, there is no
  // reservation to protect — plain first-fit backfill applies.
  if (reachable) first_reservation_.emplace(head.job_id, shadow);
  const std::int64_t extra = reachable ? walk_.avail - head.processors
                                       : std::numeric_limits<std::int64_t>::max();

  for (std::size_t i = 1; i < size(); ++i) {
    // A candidate refused since the free set last grew is refused again;
    // most candidates of a deep queue are, so the stamp is read first.
    if (refused(i)) continue;
    const QueuedJob& c = queued(i);
    // Cheap O(1) reservation conditions next; the occupancy-index probe
    // only runs for candidates that could not delay the head anyway:
    // either done (by estimate) before the shadow time, or within the
    // processors left over there after the head is seated.
    if (reachable && snap.now + c.demand > shadow && c.processors > extra) continue;
    if (fits_now(probe, snap, i)) return i;
  }
  return std::nullopt;
}

BackfillScheduler::Shadow BackfillScheduler::walk_running(const QueuedJob& head,
                                                          const SchedSnapshot& snap,
                                                          bool use_shape, Redo redo) {
  // The head is blocked: place its reservation. Walk the running jobs in
  // estimated-finish order accumulating released processors until the head's
  // request is covered — and, shape-aware, until its sub-mesh actually fits
  // the projected occupancy; that instant is the shadow time, and whatever
  // exceeds the head's need there is the backfill slack ("extra"
  // processors).
  Shadow s{false, running_.end(), snap.now, snap.free_processors};
  const std::int64_t head_need = head.processors;
  // Right now the probe already failed, so shape-aware the head does not
  // fit; count-based it may (fragmentation), in which case the shadow stays
  // at `now` exactly as before.
  if (!use_shape && s.avail >= head_need) {
    s.reachable = true;
    return s;
  }
  // A partial walk knows one answer at the kept seating job (see on_start):
  // after a start behind it, no earlier step seats the head; after a
  // completion behind it, it still seats the head.
  bool probing = redo != Redo::kFromSeat;
  released_scratch_.clear();
  for (auto it = running_.begin(); it != running_.end(); ++it) {  // (finish_estimate, id)
    s.avail += it->allocated;
    s.shadow = it->finish_estimate;
    if (use_shape)
      released_scratch_.insert(released_scratch_.end(), it->blocks.begin(), it->blocks.end());
    const bool at_seat = redo != Redo::kNone && it == walk_.seat;
    probing = probing || at_seat;
    if ((at_seat && redo == Redo::kBeforeSeat) ||
        (probing && s.avail >= head_need &&
         (!use_shape || (*snap.shape_fit)(head, released_scratch_)))) {
      s.reachable = true;
      s.seat = it;
      break;
    }
  }
  return s;
}

std::optional<std::size_t> BackfillScheduler::select_conservative(
    const AllocProbe& probe, const SchedSnapshot& snap) {
  if (empty()) return std::nullopt;
  // Fast path shared with every discipline: a fitting head starts.
  if (fits_now(probe, snap, 0)) return 0;
  const bool use_shape = opts_.shape_aware && snap.shape_fit != nullptr;

  // Build the availability profile from the running set. Overdue estimates
  // (still running past start + demand) release "any moment now".
  CapacityProfile profile(snap.now, snap.free_processors);
  for (const Running& r : running_)
    profile.add_release(std::max(r.finish_estimate, snap.now), r.allocated);

  // Walk the queue in FCFS order, reserving every job's earliest feasible
  // slot. A job whose slot is *now* (and whose real allocation the probe
  // approves) is nominated; anything later holds its reservation so no
  // later candidate can take capacity from under it.
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const QueuedJob& c = queued(i);
    double t = profile.earliest_fit(snap.now, c.processors, c.demand);
    if (t <= snap.now && fits_now(probe, snap, i)) return i;
    if (use_shape) {
      // The job cannot start now, so its reservation must sit at a
      // *shape-feasible* instant — including when the count model says it
      // fits right now but no rectangle exists (the contiguous baselines'
      // fragmentation case, exactly what ;shape is for). Advance through
      // the running releases until the job's sub-mesh fits the blocks
      // released by then. Reservations of queued jobs are invisible to the
      // bitmap (their placements are unknown), so this refinement is exact
      // against the running set and count-based against the queue.
      released_scratch_.clear();
      auto it = running_.begin();
      for (; it != running_.end(); ++it) {
        if (std::max(it->finish_estimate, snap.now) > t) break;
        released_scratch_.insert(released_scratch_.end(), it->blocks.begin(),
                                 it->blocks.end());
      }
      while (it != running_.end() && !(*snap.shape_fit)(c, released_scratch_)) {
        const double next_release = std::max(it->finish_estimate, snap.now);
        t = profile.earliest_fit(std::max(t, next_release), c.processors, c.demand);
        for (; it != running_.end() &&
               std::max(it->finish_estimate, snap.now) <= t;
             ++it)
          released_scratch_.insert(released_scratch_.end(), it->blocks.begin(),
                                   it->blocks.end());
      }
    }
    if (t > snap.now) first_reservation_.emplace(c.job_id, t);
    profile.reserve(t, c.demand, c.processors);
  }
  return std::nullopt;
}

void BackfillScheduler::on_start(const QueuedJob& job, double now,
                                 std::int64_t allocated,
                                 const std::vector<mesh::SubMesh>& blocks) {
  const auto res = first_reservation_.find(job.job_id);
  if (res != first_reservation_.end()) {
    // The promise was an *estimate*-based instant; a hair of float slack
    // keeps an exactly-on-time start from counting as broken.
    if (now <= res->second + 1e-9)
      ++reservations_honored_;
    else
      ++reservations_broken_;
    first_reservation_.erase(res);
  }
  const RunningIt it =
      running_.insert(Running{now + job.demand, job.job_id, allocated, blocks});
  slot_.emplace(job.job_id, it);

  // Carry the kept shape-aware walk. Its steps are the prefixes of the
  // running set; a step seats the head when its released processors cover
  // the head and the union of free and released nodes fits it, and neither
  // test ever turns from yes to no as that union grows (ShapeProbe). So the
  // steps read no, ..., no, yes, ..., yes, and the seating job ends the
  // first yes. A start moves its nodes from the free set into its own
  // release: a prefix holding the job reads the union it read before, one
  // without it a subset. Hence a start before the seating job keeps the
  // walk (a start in front reads, as its first step, the free set of the
  // pass that nominated it, where the head did not fit), a start after it
  // can only push the seat later, and an unreachable walk stays so. The
  // head's start changes the key's head; a second change while a partial
  // walk is pending drops the walk.
  if (!walk_key_) return;
  if (redo_ != Redo::kNone) {
    walk_key_.reset();
    return;
  }
  walk_key_->free_processors -= allocated;
  if (walk_.reachable && *walk_.seat < *it) redo_ = Redo::kFromSeat;
}

void BackfillScheduler::on_complete(std::uint64_t job_id, double now) {
  FifoBase::on_complete(job_id, now);
  const auto it = slot_.find(job_id);
  if (it == slot_.end()) return;
  const RunningIt done = it->second;
  // Carry the kept walk (see on_start). A completion frees the job's nodes:
  // a prefix that held it reads the union it read before, and one that did
  // not reads a union inside that of the old prefix ending at the job. So
  // a completion before the seating job keeps the walk (every step before
  // the job read no, and so did the old step ending at it), one after it
  // can only pull the seat earlier, and an unreachable walk stays so. The
  // seating job's completion, or a second change while a partial walk is
  // pending, drops the walk.
  if (walk_key_) {
    if (redo_ != Redo::kNone || (walk_.reachable && done == walk_.seat)) {
      walk_key_.reset();
    } else {
      walk_key_->free_processors += done->allocated;
      if (walk_.reachable && *walk_.seat < *done) redo_ = Redo::kBeforeSeat;
    }
  }
  running_.erase(done);
  slot_.erase(it);
}

std::string BackfillScheduler::name() const {
  std::string n = "backfill";
  if (opts_.conservative) n += ":conservative";
  if (opts_.shape_aware) n += ";shape";
  return n;
}

void BackfillScheduler::export_counters(
    std::vector<std::pair<std::string, std::uint64_t>>& out) const {
  out.emplace_back("backfill_reservations_honored", reservations_honored_);
  out.emplace_back("backfill_reservations_broken", reservations_broken_);
}

void BackfillScheduler::clear() {
  FifoBase::clear();
  running_.clear();
  slot_.clear();
  walk_key_.reset();
  first_reservation_.clear();
  reservations_honored_ = 0;
  reservations_broken_ = 0;
}

}  // namespace procsim::sched
