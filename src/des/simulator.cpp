#include "des/simulator.hpp"

namespace procsim::des {

void Simulator::step() {
  const Event ev = queue_.pop();
  now_ = ev.time;
  // By value: a handler may register further kinds and grow the table.
  const HandlerEntry h = handlers_[ev.kind];
  h.fn(h.ctx, ev.a, ev.b);
  ++executed_;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && fired < max_events) {
    step();
    ++fired;
  }
  return fired;
}

std::uint64_t Simulator::run_until(SimTime horizon, std::uint64_t max_events) {
  std::uint64_t fired = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && fired < max_events &&
         queue_.next_time() <= horizon) {
    step();
    ++fired;
  }
  if (!stopped_ && (queue_.empty() || queue_.next_time() > horizon)) now_ = horizon;
  return fired;
}

}  // namespace procsim::des
