#include "sched/lookahead.hpp"

#include <algorithm>

namespace procsim::sched {

std::optional<std::size_t> LookaheadScheduler::select(const AllocProbe& probe,
                                                      const SchedSnapshot& snap) {
  const std::size_t n = std::min(window_, size());
  for (std::size_t i = 0; i < n; ++i)
    if (fits_now(probe, snap, i)) return i;
  return std::nullopt;
}

std::string LookaheadScheduler::name() const {
  return "lookahead:" + std::to_string(window_);
}

}  // namespace procsim::sched
