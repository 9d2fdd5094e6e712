#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace procsim::util {

/// ASCII case-insensitive equality — the name-matching rule shared by the
/// allocator and scheduler registries.
[[nodiscard]] inline bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

/// `items` joined with ", " — the known-name lists of the registries' error
/// messages.
[[nodiscard]] inline std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

/// The one number grammar of every flag and spec string: all of `text` must
/// be one std::from_chars number. Empty text, leftover characters ("0.01x"),
/// a sign on an unsigned type ("-1"), a value out of the type's range
/// ("1e999") and, for floating point, "nan" and "inf" give nullopt, never a
/// parsed prefix or a silent default. Callers keep their own range checks.
template <typename T>
  requires std::is_arithmetic_v<T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) noexcept {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, err] = std::from_chars(text.data(), last, value);
  if (text.empty() || err != std::errc{} || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace procsim::util
