#include "cluster/cluster_spec.hpp"

#include <cctype>
#include <optional>
#include <sstream>

#include "alloc/registry.hpp"
#include "util/strings.hpp"

namespace procsim::cluster {
namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

/// util::parse_number on the trimmed text; `out` is left alone on failure.
template <typename T>
bool parse_trimmed(std::string_view s, T& out) {
  const std::optional<T> v = util::parse_number<T>(trim(s));
  if (v) out = *v;
  return v.has_value();
}

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

constexpr std::int32_t kMaxSide = 4096;  // same bound as --mesh

/// Parses one group `N x ( W x L [: ALLOC] )` and appends N MeshSpecs.
bool parse_group(std::string_view g, std::vector<MeshSpec>& out, std::string* error) {
  g = trim(g);
  const std::size_t open = g.find('(');
  if (open == std::string_view::npos || g.empty() || g.back() != ')') {
    return fail(error, "cluster group '" + std::string(g) +
                           "' is not of the form Nx(WxL[:ALLOC])");
  }
  std::string_view count_part = trim(g.substr(0, open));
  if (count_part.empty() || (count_part.back() != 'x' && count_part.back() != 'X')) {
    return fail(error, "cluster group '" + std::string(g) +
                           "' is missing the count prefix Nx(...)");
  }
  count_part.remove_suffix(1);
  std::int32_t count = 0;
  if (!parse_trimmed(count_part, count) || count < 1) {
    return fail(error, "cluster group count '" + std::string(count_part) +
                           "' must be a positive integer");
  }
  std::string_view inner = g.substr(open + 1, g.size() - open - 2);
  std::string alloc;
  if (const std::size_t colon = inner.find(':'); colon != std::string_view::npos) {
    const std::string_view alloc_part = trim(inner.substr(colon + 1));
    const auto parsed = alloc::parse_allocator_name(alloc_part);
    if (!parsed)
      return fail(error, "unknown allocator '" + std::string(alloc_part) +
                             "' in cluster group; known: " +
                             util::join(alloc::known_allocators()));
    alloc = parsed->canonical;
    inner = inner.substr(0, colon);
  }
  const std::size_t x = lower(inner).find('x');
  if (x == std::string::npos) {
    return fail(error, "cluster group geometry '" + std::string(inner) +
                           "' is not of the form WxL");
  }
  std::int32_t w = 0;
  std::int32_t l = 0;
  if (!parse_trimmed(inner.substr(0, x), w) || !parse_trimmed(inner.substr(x + 1), l) ||
      w < 1 || l < 1 || w > kMaxSide || l > kMaxSide) {
    return fail(error, "cluster group geometry '" + std::string(inner) +
                           "' must be WxL with 1 <= side <= 4096");
  }
  for (std::int32_t i = 0; i < count; ++i) {
    out.push_back(MeshSpec{mesh::Geometry{w, l}, alloc});
  }
  return true;
}

std::string format_double(double v) {
  // Integral values print without the trailing ".000000" so canonical specs
  // stay readable ("stale=10", not "stale=10.000000").
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::vector<std::string> known_dispatchers() {
  return {"random", "round_robin", "shortest_queue", "stale_queue", "improved"};
}

std::string known_dispatcher_list() { return util::join(known_dispatchers()); }

std::optional<ClusterSpec> parse_cluster_spec(std::string_view spec, std::string* error) {
  ClusterSpec out;
  std::string_view rest = trim(spec);
  if (rest.empty()) {
    fail(error, "empty cluster spec");
    return std::nullopt;
  }

  // Split off ';'-separated key=value options; the first segment is the
  // group list.
  std::vector<std::string_view> segments;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    segments.push_back(trim(rest.substr(0, semi)));
    if (semi == std::string_view::npos) break;
    rest.remove_prefix(semi + 1);
  }

  // Group list: group ("+" group)*.
  std::string_view groups = segments.front();
  while (!groups.empty()) {
    // '+' inside parentheses never occurs (groups are Nx(WxL[:ALLOC])), so a
    // flat split is safe.
    const std::size_t plus = groups.find('+');
    if (!parse_group(groups.substr(0, plus), out.meshes, error)) return std::nullopt;
    if (plus == std::string_view::npos) break;
    groups.remove_prefix(plus + 1);
  }
  if (out.meshes.empty()) {
    fail(error, "cluster spec has no mesh groups");
    return std::nullopt;
  }

  bool migrate_set = false;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const std::string_view seg = segments[i];
    if (seg.empty()) continue;
    const std::size_t eq = seg.find('=');
    if (eq == std::string_view::npos) {
      fail(error, "cluster option '" + std::string(seg) + "' is not key=value");
      return std::nullopt;
    }
    const std::string key = lower(trim(seg.substr(0, eq)));
    const std::string_view value = trim(seg.substr(eq + 1));
    if (key == "balance") {
      const std::string name = lower(value);
      bool known = false;
      for (const std::string& k : known_dispatchers()) known = known || k == name;
      if (!known) {
        fail(error, "unknown dispatcher '" + std::string(value) +
                        "'; known: " + known_dispatcher_list());
        return std::nullopt;
      }
      out.balance = name;
    } else if (key == "stale") {
      if (!parse_trimmed(value, out.stale_refresh) || out.stale_refresh <= 0.0) {
        fail(error, "cluster option stale=" + std::string(value) +
                        " must be a finite positive refresh period");
        return std::nullopt;
      }
    } else if (key == "migrate") {
      const std::string mode = lower(value);
      if (mode == "steal") {
        out.migrate = true;
      } else if (mode == "off") {
        out.migrate = false;
      } else {
        fail(error, "cluster option migrate=" + std::string(value) +
                        " must be 'steal' or 'off'");
        return std::nullopt;
      }
      migrate_set = true;
    } else if (key == "lat") {
      if (!parse_trimmed(value, out.migrate_latency) || out.migrate_latency < 0.0) {
        fail(error, "cluster option lat=" + std::string(value) +
                        " must be a finite non-negative migration latency");
        return std::nullopt;
      }
    } else {
      fail(error, "unknown cluster option '" + key +
                      "'; known: balance, stale, migrate, lat");
      return std::nullopt;
    }
  }
  (void)migrate_set;

  // Canonical spelling: re-run-length-encode consecutive identical groups,
  // then append non-default options in fixed order. parse(canonical) == spec.
  std::string canon;
  std::size_t i = 0;
  while (i < out.meshes.size()) {
    std::size_t j = i;
    while (j < out.meshes.size() && out.meshes[j].geom == out.meshes[i].geom &&
           out.meshes[j].alloc == out.meshes[i].alloc) {
      ++j;
    }
    if (!canon.empty()) canon += "+";
    canon += std::to_string(j - i) + "x(" + std::to_string(out.meshes[i].geom.width()) +
             "x" + std::to_string(out.meshes[i].geom.length());
    if (!out.meshes[i].alloc.empty()) canon += ":" + out.meshes[i].alloc;
    canon += ")";
    i = j;
  }
  canon += ";balance=" + out.balance;
  if (out.balance == "stale_queue" || out.balance == "improved") {
    canon += ";stale=" + format_double(out.stale_refresh);
  }
  if (out.migrate) {
    canon += ";migrate=steal;lat=" + format_double(out.migrate_latency);
  }
  out.canonical = std::move(canon);
  return out;
}

}  // namespace procsim::cluster
