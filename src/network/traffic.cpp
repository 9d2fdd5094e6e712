#include "network/traffic.hpp"

#include <stdexcept>

#include "des/distributions.hpp"

namespace procsim::network {

std::vector<IndexPair> generate_message_plan(std::int32_t k, std::int64_t count,
                                             des::Xoshiro256SS& rng) {
  if (count < 0) throw std::invalid_argument("generate_message_plan: negative count");
  std::vector<IndexPair> plan;
  if (k < 2 || count == 0) return plan;
  plan.reserve(static_cast<std::size_t>(count));

  // Sliced all-to-all phase schedule: in round r every processor i addresses
  // (i + 1 + r) mod k, so any `count` consecutive slots keep sources
  // maximally spread (no artificial serialisation on one injection port). A
  // random starting slot `at` (round at / k, index at % k) decorrelates
  // jobs; the walk then steps (round, index) without dividing.
  const std::int64_t slots = static_cast<std::int64_t>(k) * (k - 1);
  const std::int64_t at = des::sample_uniform_int(rng, 0, slots - 1);
  auto r = static_cast<std::int32_t>(at / k);  // round: 0..k-2
  auto i = static_cast<std::int32_t>(at % k);
  for (std::int64_t m = 0; m < count; ++m) {
    const std::int32_t d = i + 1 + r;  // < 2k
    plan.emplace_back(i, d < k ? d : d - k);
    if (++i == k) {
      i = 0;
      if (++r == k - 1) r = 0;
    }
  }
  return plan;
}

}  // namespace procsim::network
