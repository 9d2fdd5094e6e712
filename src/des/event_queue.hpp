#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event.hpp"

namespace procsim::des {

/// Retired engine selector: the pending-event set has one implementation,
/// EventQueue below. The enum and the `event_engine` fields of
/// core::SystemConfig and cluster::ClusterSimConfig survive only because
/// perfbench/ still assigns them; nothing reads them. Delete all three with
/// the next change to the benchmark.
enum class EventEngine { kHeap };

/// Pending-event set of a discrete-event simulation, popped in strict
/// (time, insertion sequence) order.
///
/// A binary min-heap on (time, seq), fronted by a FIFO lane for events pushed
/// at exactly the queue's clock (the time of the last heap pop). The lane
/// needs no key comparison to stay exact: a heap event due at the clock time
/// was pushed before the clock got there, since a push at the clock time goes
/// to the lane instead, so it has a smaller seq than every lane event and
/// pops first; lane events then leave in push order, and the clock cannot
/// pass them before the lane drains. Same-time follow-ups (the network's
/// per-timestamp arbitration passes above all) never touch the heap.
class EventQueue {
 public:
  /// Schedules the event (kind, a, b) at absolute time `time`. Precondition:
  /// `time` is not before the last popped event (Simulator::schedule_at
  /// enforces it against its clock).
  void push(SimTime time, EventKind kind, std::uint32_t a, std::uint64_t b) {
    const Event ev{time, next_seq_++, kind, a, b};
    if (time == now_) {
      lane_.push_back(ev);
      return;
    }
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  Event pop() {
    if (lane_head_ < lane_.size() && (heap_.empty() || heap_.front().time > now_)) {
      const Event ev = lane_[lane_head_++];
      if (lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
      }
      return ev;
    }
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    const Event ev = heap_.back();
    heap_.pop_back();
    now_ = ev.time;
    return ev;
  }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    return lane_head_ < lane_.size() ? now_ : heap_.front().time;
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + (lane_.size() - lane_head_);
  }

  /// Drops every pending event and rewinds the clock and the sequence
  /// counter (between replications).
  void clear() noexcept {
    heap_.clear();
    lane_.clear();
    lane_head_ = 0;
    now_ = 0;
    next_seq_ = 0;
  }

  /// Total number of events ever scheduled (diagnostic).
  [[nodiscard]] std::uint64_t scheduled_count() const noexcept { return next_seq_; }

 private:
  std::vector<Event> heap_;  ///< std::push_heap/pop_heap min-heap on EventLater
  std::vector<Event> lane_;  ///< events at now_, in push order, from lane_head_
  std::size_t lane_head_{0};
  SimTime now_{0};
  std::uint64_t next_seq_{0};
};

}  // namespace procsim::des
