#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"

namespace procsim::des {

/// Discrete-event simulation kernel: a clock, a pending-event set and a
/// handler table.
///
/// A component registers one handler per kind of event it schedules
/// (`kind = add_handler(fn, ctx)`) and then schedules plain 32-byte events
/// `schedule_at(t, kind, a, b)`; `run()` fires them in (time, insertion)
/// order through `fn(ctx, a, b)` until the queue drains, `stop()` is called,
/// or an event horizon is reached. The kernel itself holds no model state,
/// which keeps every substrate (network, allocator, workload) independently
/// testable against a bare Simulator.
class Simulator {
 public:
  /// Fires one event of a registered kind with the event's payload.
  using Handler = void (*)(void* ctx, std::uint32_t a, std::uint64_t b);

  /// Registers `fn` (called with `ctx`) and returns the kind that fires it.
  /// Components register once, when built, and keep their kinds: reset()
  /// drops pending events, never handlers. `ctx` must outlive the kernel's
  /// use of the kind.
  EventKind add_handler(Handler fn, void* ctx) {
    handlers_.push_back(HandlerEntry{fn, ctx});
    return static_cast<EventKind>(handlers_.size() - 1);
  }

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules an event of `kind` with payload (a, b) at absolute time
  /// `when` (must be >= now()).
  void schedule_at(SimTime when, EventKind kind, std::uint32_t a = 0, std::uint64_t b = 0) {
    if (when < now_) throw std::invalid_argument("Simulator: scheduling into the past");
    if (kind >= handlers_.size())
      throw std::invalid_argument("Simulator: scheduling an unregistered event kind");
    queue_.push(when, kind, a, b);
  }

  /// Schedules an event `delay` time units from now (delay >= 0).
  void schedule_in(SimTime delay, EventKind kind, std::uint32_t a = 0, std::uint64_t b = 0) {
    schedule_at(now_ + delay, kind, a, b);
  }

  /// Defers `action` to the end of the current timestamp batch: it runs once
  /// every pending event at the current time has fired (before the clock
  /// advances), in registration order. Deferred actions may schedule new
  /// events — including at the current time, which keeps the batch open —
  /// and may defer further actions. This is how a burst of same-timestamp
  /// completions triggers one scheduling pass instead of N: the model
  /// registers the pass once per timestamp instead of running it per event.
  /// Actions still pending when `stop()` ends a run are dropped, matching
  /// the pre-batching behaviour of work that never got to run. A cold path
  /// (coalesced passes, network verify mode), hence the closure.
  void at_batch_end(std::function<void()> action) { batch_end_.push_back(std::move(action)); }

  /// Runs until the event queue is empty, `stop()` is called, or more than
  /// `max_events` events have fired (guard against runaway models).
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  /// Runs like `run()` but never past time `horizon`; events at exactly
  /// `horizon` still fire. The clock is left at min(horizon, last event).
  std::uint64_t run_until(SimTime horizon,
                          std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  /// Makes `run()` return after the currently executing event completes.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }

  /// Resets clock, queue and counters for a fresh replication.
  void reset() {
    queue_.clear();
    batch_end_.clear();
    now_ = 0;
    executed_ = 0;
    stopped_ = false;
  }

 private:
  struct HandlerEntry {
    Handler fn;
    void* ctx;
  };

  /// Pops the earliest event, advances the clock, fires the handler, and
  /// runs the deferred batch-end work once the timestamp is exhausted.
  void step();
  /// Runs deferred batch-end actions until none remain or the batch reopens
  /// (an action scheduled a new event at the current time).
  void flush_batch();

  EventQueue queue_;
  std::vector<HandlerEntry> handlers_;
  std::vector<std::function<void()>> batch_end_;
  std::vector<std::function<void()>> batch_scratch_;  ///< swap target during a flush
  SimTime now_{0};
  std::uint64_t executed_{0};
  bool stopped_{false};
};

}  // namespace procsim::des
