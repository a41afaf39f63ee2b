#pragma once
// Shared value conversion for `key=value` override lists — the common half
// of every spec grammar in the tree (est::EstimatorRegistry's
// "name:key=value,..." and the trace workload registry's
// "MODEL,key=value,..."). Malformed values are hard errors naming the
// context, key, and expected type; unknown keys are rejected against the
// list of valid keys each registry owns.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "p2pse/support/number.hpp"

namespace p2pse::support {

using SpecOverrides = std::vector<std::pair<std::string, std::string>>;

/// Parsed "name[:key=value,...]" text — the shared surface grammar of
/// estimator specs ("sample_collide:l=10,T=2") and network specs
/// ("net:loss=0.05,latency=exp:50").
struct ParsedSpec {
  std::string name;
  SpecOverrides overrides;
};

/// Tokenizes "name" / "name:k=v,k=v". `context` prefixes error messages
/// (e.g. "estimator spec", "net spec"). Throws std::invalid_argument on an
/// empty name, an override that is not of the form key=value, or a
/// duplicate key. Key/value semantics stay with the caller.
[[nodiscard]] ParsedSpec parse_spec(std::string_view text,
                                    std::string_view context);

/// Tokenizes the comma-separated model grammar "MODEL[,key=value,...]"
/// shared by the trace and topology registries (their specs carry the model
/// name as the first comma item instead of a ':'-separated prefix). Same
/// strictness as parse_spec: empty model names, malformed overrides, and
/// duplicate keys are hard errors prefixed with `context`.
[[nodiscard]] ParsedSpec parse_model_spec(std::string_view text,
                                          std::string_view context);

/// Rejects the first override whose key is not a token of `valid_keys`, a
/// comma-separated list ("a, b, c"; blanks after a comma are ignored).
/// Matching is by exact token, so "ration" cannot pass for "duration".
/// Throws std::invalid_argument("<context>: unknown <noun> '<key>' (valid
/// keys: <valid_keys, or none when empty>)").
void require_known_keys(const SpecOverrides& overrides,
                        std::string_view valid_keys, std::string_view context,
                        std::string_view noun = "key");

/// The entry of a model catalog (elements with a `name`) named `name`.
/// Throws std::invalid_argument("<context>: unknown model '<name>' (known:
/// <every name, in catalog order>)").
template <class Info>
[[nodiscard]] const Info& require_known_model(const std::vector<Info>& infos,
                                              std::string_view name,
                                              std::string_view context) {
  std::string known;
  for (const Info& info : infos) {
    if (info.name == name) return info;
    known.append(known.empty() ? "" : ", ").append(info.name);
  }
  throw std::invalid_argument(std::string(context) + ": unknown model '" +
                              std::string(name) + "' (known: " + known + ")");
}

class SpecValueReader {
 public:
  /// `context` prefixes every error message (e.g. the estimator or trace
  /// model name). `overrides` must outlive the reader.
  SpecValueReader(std::string context, const SpecOverrides& overrides)
      : context_(std::move(context)), overrides_(&overrides) {}

  /// Value of `key`, or nullptr when absent.
  [[nodiscard]] const std::string* find(std::string_view key) const;

  /// Converting getters: return `fallback` when the key is absent, throw
  /// std::invalid_argument naming the key and value when parse_number
  /// (support/number.hpp) refuses it. get_uint reads into the type of
  /// `fallback`, so a value past that type's range is an error, not a wrap.
  template <class T>
  [[nodiscard]] T get_uint(std::string_view key, T fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;

  /// Raises the canonical malformed-value error (public so registries can
  /// reuse the phrasing for enum-like keys they convert themselves).
  [[noreturn]] void bad_value(std::string_view key, std::string_view expected,
                              std::string_view value) const;

 private:
  std::string context_;
  const SpecOverrides* overrides_;
};

template <class T>
T SpecValueReader::get_uint(std::string_view key, T fallback) const {
  static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>);
  const std::string* raw = find(key);
  if (!raw) return fallback;
  if (const std::optional<T> value = parse_number<T>(*raw)) return *value;
  constexpr T kMax = std::numeric_limits<T>::max();
  if constexpr (kMax == std::numeric_limits<std::uint64_t>::max()) {
    bad_value(key, "a non-negative integer", *raw);
  } else {
    bad_value(key, "an integer in [0, " + std::to_string(kMax) + "]", *raw);
  }
}

}  // namespace p2pse::support
