#pragma once
// The one text-to-number conversion behind every spec key, CLI flag and
// trace field, with the same three rules everywhere: the whole token is
// consumed (no blanks, no '+', no trailing text); a double is finite; an
// integer fits its destination type (so an unsigned type takes no '-').
// std::from_chars converts plain decimal only (no hex, no locale), rounding
// exactly as strtod does. Callers phrase the error in their own grammar.

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

namespace p2pse::support {

/// `text` as a T under the three rules above, or nullopt.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) noexcept {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// The colon-separated doubles of `text` ("50", "40:0.03:15"; "" is an
/// empty list). `reject(token)` gets the first token parse_number refuses
/// and must throw.
template <class Reject>
[[nodiscard]] std::vector<double> parse_number_list(std::string_view text,
                                                    Reject&& reject) {
  std::vector<double> out;
  while (!text.empty()) {
    const std::size_t colon = text.find(':');
    const std::string_view token = text.substr(0, colon);
    text = colon == std::string_view::npos ? std::string_view{}
                                           : text.substr(colon + 1);
    const std::optional<double> value = parse_number<double>(token);
    if (!value) reject(token);
    out.push_back(value.value_or(0.0));
  }
  return out;
}

}  // namespace p2pse::support
