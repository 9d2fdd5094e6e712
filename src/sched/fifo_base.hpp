#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace procsim::sched {

/// Common arrival-ordered (FCFS) queue for the disciplines that keep the
/// paper's base order but pick non-head jobs transactionally (lookahead
/// windows, backfilling). The queue is a vector kept sorted by `seq`; the
/// simulator enqueues in arrival order, so the sorted insert almost always
/// degenerates to push_back — the general path only exists so property tests
/// may enqueue out of order.
///
/// Each queue entry carries the epoch of its job's last refused probe. The
/// probe reads only the request and the free set and never turns from no to
/// yes as the free set shrinks (AllocProbe), so a refusal stands until the
/// free set grows: the epoch advances on on_complete and when a snapshot
/// shows more free processors than the last probing select saw (a growth no
/// hook reported). Starts only shrink the free set; take() and clear() drop
/// a stamp with its entry.
class FifoBase : public Scheduler {
 public:
  void enqueue(const QueuedJob& job) override {
    const auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), job.seq,
        [](std::uint64_t seq, const Entry& e) { return seq < e.job.seq; });
    queue_.insert(pos, Entry{job, 0});
  }

  [[nodiscard]] std::size_t size() const override { return queue_.size(); }

  [[nodiscard]] QueuedJob job_at(std::size_t pos) const override {
    return queue_.at(pos).job;
  }

  QueuedJob take(std::size_t pos) override {
    QueuedJob job = queue_.at(pos).job;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
    return job;
  }

  void on_complete(std::uint64_t, double) override { ++epoch_; }

  void clear() override { queue_.clear(); }

 protected:
  /// job_at without the copy. Precondition: pos < size().
  [[nodiscard]] const QueuedJob& queued(std::size_t pos) const noexcept {
    return queue_[pos].job;
  }

  /// The probe's answer for the job at `pos`, except that a job the probe
  /// refused since the free set last grew gets that "no" again without a
  /// call; a new refusal is stamped. Every probing select() asks position 0
  /// through here first, so the snapshot check runs before any refused().
  [[nodiscard]] bool fits_now(const AllocProbe& probe, const SchedSnapshot& snap,
                              std::size_t pos) {
    if (snap.free_processors > free_seen_) ++epoch_;
    free_seen_ = snap.free_processors;
    Entry& e = queue_[pos];
    if (e.refused == epoch_) return false;
    if (probe(e.job)) return true;
    e.refused = epoch_;
    return false;
  }

  /// Whether fits_now would answer the job at `pos` with a remembered "no".
  [[nodiscard]] bool refused(std::size_t pos) const noexcept {
    return queue_[pos].refused == epoch_;
  }

 private:
  struct Entry {
    QueuedJob job;
    std::uint64_t refused;  ///< epoch of the last refused probe; 0: none
  };
  std::vector<Entry> queue_;
  std::uint64_t epoch_{1};
  std::int64_t free_seen_{0};  ///< the last probing select's free processors
};

}  // namespace procsim::sched
