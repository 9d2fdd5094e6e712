#pragma once

#include <cstdint>
#include <type_traits>

namespace procsim::des {

/// Simulation time. One unit corresponds to one network cycle (the time a
/// flit needs to cross one link), matching the paper's "time units".
using SimTime = double;

/// Index into a Simulator's handler table (Simulator::add_handler).
using EventKind = std::uint32_t;

/// A scheduled event: a plain 32-byte record, copied by value through the
/// queue. `kind` names the handler that fires it; `a` and `b` are that
/// handler's payload (a packet, channel or job slot; an epoch stamp). The
/// meaning of the payload belongs to whoever registered the kind.
///
/// Ordering is (time, sequence): two events at the same timestamp fire in
/// the order they were scheduled, which keeps runs deterministic under a
/// fixed seed.
struct Event {
  SimTime time{0};
  std::uint64_t seq{0};
  EventKind kind{0};
  std::uint32_t a{0};
  std::uint64_t b{0};
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) == 32);

/// Min-heap comparator for Event (later time == lower priority).
struct EventLater {
  [[nodiscard]] bool operator()(const Event& x, const Event& y) const noexcept {
    if (x.time != y.time) return x.time > y.time;
    return x.seq > y.seq;
  }
};

}  // namespace procsim::des
