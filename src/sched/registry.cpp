#include "sched/registry.hpp"

#include <stdexcept>
#include <utility>

#include "sched/backfill.hpp"
#include "sched/lookahead.hpp"
#include "util/strings.hpp"

namespace procsim::sched {

using util::iequals;

namespace {

/// Parses the ":k" window argument of a lookahead spec (absent -> default).
[[nodiscard]] std::optional<std::size_t> parse_window(std::string_view arg) {
  if (arg.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : arg) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
    if (value > 1'000'000) return std::nullopt;  // absurd windows are typos
  }
  if (value == 0) return std::nullopt;
  return value;
}

/// The one copy of the backfill grammar — backfill[:easy|:conservative]
/// [;shape] — shared by parse_sched_spec (canonicalisation) and
/// make_scheduler (construction), so the two can never drift apart.
struct BackfillParse {
  BackfillOptions opts;
  std::string canonical;
};

[[nodiscard]] std::optional<BackfillParse> parse_backfill(std::string_view spec) {
  bool shape = false;
  const std::size_t semi = spec.find(';');
  if (semi != std::string_view::npos) {
    if (!iequals(spec.substr(semi + 1), "shape")) return std::nullopt;
    shape = true;
    spec = spec.substr(0, semi);
  }
  const std::size_t colon = spec.find(':');
  if (!iequals(spec.substr(0, colon), "backfill")) return std::nullopt;
  bool conservative = false;
  if (colon != std::string_view::npos) {
    const std::string_view variant = spec.substr(colon + 1);
    if (iequals(variant, "conservative"))
      conservative = true;
    else if (!iequals(variant, "easy"))  // ":easy" canonicalises away
      return std::nullopt;
  }
  BackfillParse out;
  out.opts.conservative = conservative;
  out.opts.shape_aware = shape;
  out.canonical = "backfill";
  if (conservative) out.canonical += ":conservative";
  if (shape) out.canonical += ";shape";
  return out;
}

}  // namespace

std::optional<Policy> parse_policy(std::string_view name) noexcept {
  for (const auto& [policy, canonical] : kPolicyNames)
    if (iequals(name, canonical)) return policy;
  return std::nullopt;
}

std::optional<SchedSpec> parse_sched_spec(std::string_view spec) noexcept {
  if (const auto policy = parse_policy(spec)) return SchedSpec{*policy};
  if (auto bf = parse_backfill(spec)) return SchedSpec{std::move(bf->canonical)};
  if (spec.find(';') != std::string_view::npos)
    return std::nullopt;  // ";shape" is a backfill-only option

  const std::size_t colon = spec.find(':');
  const std::string_view kind = spec.substr(0, colon);
  if (iequals(kind, "lookahead")) {
    std::size_t window = kDefaultLookahead;
    if (colon != std::string_view::npos) {
      const auto parsed = parse_window(spec.substr(colon + 1));
      if (!parsed) return std::nullopt;
      window = *parsed;
    }
    return SchedSpec{"lookahead:" + std::to_string(window)};
  }
  return std::nullopt;
}

std::vector<std::string> known_schedulers() {
  std::vector<std::string> out;
  out.reserve(kPolicyNames.size() + 2);
  for (const auto& [policy, canonical] : kPolicyNames) out.emplace_back(canonical);
  out.emplace_back("lookahead:<k>");
  out.emplace_back("backfill[:conservative][;shape]");
  return out;
}

std::string known_scheduler_list() { return util::join(known_schedulers()); }

std::unique_ptr<Scheduler> make_scheduler(Policy policy) {
  return std::make_unique<OrderedScheduler>(policy);
}

std::unique_ptr<Scheduler> make_scheduler(const SchedSpec& spec) {
  if (const auto policy = parse_policy(spec.canonical))
    return std::make_unique<OrderedScheduler>(*policy);
  // Same grammar object the parser used; requiring canonical == spec keeps
  // the contract that name() round-trips (aliases like "backfill:easy" are
  // the parser's business, not the factory's).
  if (const auto bf = parse_backfill(spec.canonical);
      bf && bf->canonical == spec.canonical)
    return std::make_unique<BackfillScheduler>(bf->opts);
  constexpr std::string_view kLookahead = "lookahead:";
  if (spec.canonical.size() > kLookahead.size() &&
      std::string_view(spec.canonical).substr(0, kLookahead.size()) == kLookahead) {
    const auto window =
        parse_window(std::string_view(spec.canonical).substr(kLookahead.size()));
    if (window) return std::make_unique<LookaheadScheduler>(*window);
  }
  throw std::invalid_argument("make_scheduler: unknown policy '" + spec.canonical +
                              "' (known: " + known_scheduler_list() + ")");
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (const auto spec = parse_sched_spec(name)) return make_scheduler(*spec);
  throw std::invalid_argument("make_scheduler: unknown policy '" + name +
                              "' (known: " + known_scheduler_list() + ")");
}

}  // namespace procsim::sched
