#pragma once

// Test-side adapter for the typed event kernel: one registered handler kind
// whose payload `a` indexes a table of closures, so kernel tests can still
// read "at time t, do this". Production code registers one handler per event
// kind instead (des::Simulator::add_handler).

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "des/simulator.hpp"

namespace procsim_test {

class Actions {
 public:
  explicit Actions(procsim::des::Simulator& sim)
      : sim_(sim), kind_(sim.add_handler(&fire, this)) {}

  Actions(const Actions&) = delete;
  Actions& operator=(const Actions&) = delete;

  void at(procsim::des::SimTime when, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    sim_.schedule_at(when, kind_, static_cast<std::uint32_t>(fns_.size() - 1));
  }
  void in(procsim::des::SimTime delay, std::function<void()> fn) {
    at(sim_.now() + delay, std::move(fn));
  }

 private:
  static void fire(void* ctx, std::uint32_t a, std::uint64_t) {
    // A deque, so closures that schedule more never move the running one.
    static_cast<Actions*>(ctx)->fns_[a]();
  }

  procsim::des::Simulator& sim_;
  procsim::des::EventKind kind_;
  std::deque<std::function<void()>> fns_;
};

}  // namespace procsim_test
