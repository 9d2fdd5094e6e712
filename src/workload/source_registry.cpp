#include "workload/source_registry.hpp"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <stdexcept>

#include "util/strings.hpp"

namespace procsim::workload {

namespace {

[[nodiscard]] std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

constexpr const char* kKinds[] = {"uniform", "exponential", "real",
                                  "swf",     "saturation",  "bursty"};

[[nodiscard]] std::string known_list() { return util::join(known_sources()); }

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("make_source: " + msg + " (known sources: " +
                              known_list() + ")");
}

/// Typed access to the parsed key/value options, tracking which keys each
/// kind consumed so leftovers fail fast.
class Options {
 public:
  explicit Options(const SourceSpec& spec) : spec_(spec), unused_(spec.params) {}

  /// A finite value > min_exclusive.
  [[nodiscard]] double number(const std::string& key, double fallback,
                              double min_exclusive) {
    const auto it = spec_.params.find(key);
    if (it == spec_.params.end()) return fallback;
    unused_.erase(key);
    const auto v = util::parse_number<double>(it->second);
    if (!v || !(*v > min_exclusive))
      fail("bad value '" + it->second + "' for key '" + key + "' in '" +
           spec_.canonical + "'");
    return *v;
  }

  /// The mean message count `mes`: > 0 and at most the per-job cap trace
  /// replay applies.
  [[nodiscard]] double messages(double fallback) {
    const double v = number("mes", fallback, 0);
    if (v > static_cast<double>(kMaxMessagesPerJob))
      fail("key 'mes' must be <= " + std::to_string(kMaxMessagesPerJob) + " in '" +
           spec_.canonical + "'");
    return v;
  }

  [[nodiscard]] std::size_t count(const std::string& key, std::size_t fallback) {
    const auto it = spec_.params.find(key);
    if (it == spec_.params.end()) return fallback;
    unused_.erase(key);
    const auto v = util::parse_number<std::size_t>(it->second);
    if (!v)
      fail("key '" + key + "' must be a non-negative integer in '" +
           spec_.canonical + "'");
    return *v;
  }

  [[nodiscard]] SideDistribution dist(const std::string& key,
                                      SideDistribution fallback) {
    const auto it = spec_.params.find(key);
    if (it == spec_.params.end()) return fallback;
    unused_.erase(key);
    if (util::iequals(it->second, "uniform")) return SideDistribution::kUniform;
    if (util::iequals(it->second, "exponential"))
      return SideDistribution::kExponential;
    fail("bad side distribution '" + it->second + "' (uniform | exponential)");
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return spec_.params.contains(key);
  }

  /// Every key the kind did not consume is a spec error.
  void finish() const {
    if (unused_.empty()) return;
    std::string keys;
    for (const auto& [k, v] : unused_) {
      if (!keys.empty()) keys += ", ";
      keys += k;
    }
    fail("unknown key(s) for '" + spec_.kind + "': " + keys);
  }

 private:
  const SourceSpec& spec_;
  std::map<std::string, std::string> unused_;
};

}  // namespace

std::optional<SourceSpec> parse_source_spec(std::string_view spec) {
  SourceSpec out;
  std::size_t pos = 0;
  bool head = true;
  while (pos <= spec.size()) {
    const std::size_t sep = std::min(spec.find(';', pos), spec.size());
    const std::string_view token = spec.substr(pos, sep - pos);
    if (head) {
      const std::size_t colon = token.find(':');
      out.kind = to_lower(token.substr(0, colon));
      if (colon != std::string_view::npos) out.arg = token.substr(colon + 1);
      head = false;
    } else if (!token.empty()) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 > token.size())
        return std::nullopt;
      const std::string key = to_lower(token.substr(0, eq));
      const std::string value{token.substr(eq + 1)};
      if (value.empty() || !out.params.emplace(key, value).second)
        return std::nullopt;  // empty or duplicate key
    }
    pos = sep + 1;
  }

  if (std::find_if(std::begin(kKinds), std::end(kKinds), [&](const char* k) {
        return out.kind == k;
      }) == std::end(kKinds))
    return std::nullopt;
  if (out.kind == "swf" ? out.arg.empty() : !out.arg.empty()) return std::nullopt;

  out.canonical = out.kind;
  if (!out.arg.empty()) out.canonical += ":" + out.arg;
  for (const auto& [k, v] : out.params) out.canonical += ";" + k + "=" + v;
  return out;
}

std::vector<std::string> known_sources() {
  std::vector<std::string> out;
  for (const char* k : kKinds)
    out.emplace_back(std::string(k) == "swf" ? "swf:<path>" : k);
  return out;
}

std::unique_ptr<Source> make_source(const std::string& spec,
                                    const mesh::Geometry& geom,
                                    const SourceOverrides& overrides) {
  const auto parsed = parse_source_spec(spec);
  if (!parsed) fail("bad source spec '" + spec + "'");
  Options opts(*parsed);

  // Driver overrides fill the defaults; explicit spec keys win over both.
  const double load0 = overrides.load > 0 ? overrides.load : 0.01;
  const std::int32_t plen = overrides.packet_len > 0 ? overrides.packet_len : 8;

  if (parsed->kind == "uniform" || parsed->kind == "exponential") {
    StochasticParams p;
    p.side_dist = parsed->kind == "uniform" ? SideDistribution::kUniform
                                            : SideDistribution::kExponential;
    p.load = opts.number("load", load0, 0);
    p.mean_messages = opts.messages(5.0);
    p.packet_len = plen;
    const std::size_t count =
        opts.count("jobs", overrides.count ? overrides.count : 1000);
    opts.finish();
    return std::make_unique<StochasticSource>(p, geom, count, parsed->canonical);
  }

  if (parsed->kind == "real" || parsed->kind == "swf") {
    TraceReplayParams replay;
    replay.prefix = opts.count("jobs", overrides.count);
    double load = opts.number("load", load0, 0);
    if (opts.has("f")) {
      replay.arrival_factor = opts.number("f", 1.0, 0);
      load = 0;  // an explicit factor disables the load-derived one
    }
    opts.finish();
    if (parsed->kind == "real")
      return std::make_unique<TraceSource>(ParagonModelParams{}, replay, load, geom,
                                           parsed->canonical);
    // Shared parse: every replication (and sweep cell) replaying this file
    // aliases one immutable record vector instead of re-reading the archive.
    return std::make_unique<TraceSource>(
        load_swf_file_shared(parsed->arg, geom.nodes()), replay, load, geom,
        parsed->canonical);
  }

  if (parsed->kind == "saturation") {
    SaturationParams p;
    p.count = opts.count("n", overrides.count ? overrides.count : p.count);
    p.side_dist = opts.dist("dist", p.side_dist);
    p.mean_messages = opts.messages(p.mean_messages);
    p.packet_len = plen;
    opts.finish();
    if (p.count == 0) fail("saturation needs n > 0");
    return std::make_unique<SaturationSource>(p, geom, parsed->canonical);
  }

  if (parsed->kind == "bursty") {
    BurstyParams p;
    p.load = opts.number("load", load0, 0);
    p.burst_ratio = opts.number("b", p.burst_ratio, 0);
    p.phase_jobs = opts.number("phase", p.phase_jobs, 0);
    p.count = opts.count("jobs", overrides.count ? overrides.count : p.count);
    p.side_dist = opts.dist("dist", p.side_dist);
    p.mean_messages = opts.messages(p.mean_messages);
    p.packet_len = plen;
    opts.finish();
    return std::make_unique<BurstySource>(p, geom, parsed->canonical);
  }

  fail("unhandled source kind '" + parsed->kind + "'");
}

}  // namespace procsim::workload
