#pragma once
// Minimal command-line parsing for bench/example binaries.
// Supported syntax: --name value, --name=value, --flag (boolean true), --help.
// Every binary describes its flags in one table of Flag rows, which drives
// both its --help and the flags it accepts (handle_flags), and runs its body
// inside run_main, the one error exit.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "p2pse/support/number.hpp"

namespace p2pse::support {

class Args {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input
  /// (e.g. a value-less option that is consumed as another option's value).
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;

  /// Strict mode: throws std::invalid_argument naming every option that is
  /// not in `known` and listing the valid flags. Call after construction in
  /// binaries where a typo'd flag silently falling back to its default would
  /// corrupt a sweep. --help/-h never need to be listed.
  void require_known(std::span<const std::string_view> known) const;
  void require_known(std::initializer_list<std::string_view> known) const;

  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string default_value) const;
  /// Numeric getters read with support::parse_number and throw
  /// std::invalid_argument naming the flag and value when it refuses.
  /// get_uint reads at the width of `default_value`'s unsigned type (64
  /// bits for a plain literal), so a value past that width is an error, not
  /// a wrap: with a std::uint32_t default, --l 4294967297 is refused.
  template <class T>
  [[nodiscard]] auto get_uint(std::string_view name, T default_value) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double default_value) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool default_value) const;

  /// Positional (non-option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True if --help/-h was passed.
  [[nodiscard]] bool help_requested() const noexcept { return help_; }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  [[nodiscard]] std::optional<std::string> raw(std::string_view name) const;
  /// Throws the error naming flag --`name`, the `expected` form and `value`.
  [[noreturn]] static void refuse(std::string_view name,
                                  std::string_view expected,
                                  const std::string& value);

  std::string program_;
  std::map<std::string, std::string, std::less<>> options_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

/// One row of a binary's flag table: `--name VALUE` and its --help text.
struct Flag {
  std::string_view name;
  std::string_view value;  ///< placeholder ("N", "PATH"); "" = a switch
  std::string_view help;   ///< '\n' starts a continuation line
};

/// The front of a binary's body, over the rows of `tables` in order. On
/// --help it prints "PROGRAM — WHAT" and the rows, each followed by
/// " (default X)" when `default_of(name)` returns a non-empty X, and
/// returns true (the caller exits 0). Otherwise it refuses every flag that
/// no row names and returns false.
bool handle_flags(
    const Args& args, std::string_view what,
    std::initializer_list<std::span<const Flag>> tables,
    const std::function<std::string(std::string_view)>& default_of = {});

/// The one error exit of every binary: parses argv, runs `body`, and turns
/// any exception into "PROGRAM: error: WHAT" on stderr and exit status 1.
int run_main(int argc, const char* const* argv,
             const std::function<int(const Args&)>& body);

template <class T>
auto Args::get_uint(std::string_view name, T default_value) const {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  using U = std::conditional_t<std::is_unsigned_v<T>, T, std::uint64_t>;
  const std::optional<std::string> value = raw(name);
  if (!value) return static_cast<U>(default_value);
  if (const std::optional<U> out = parse_number<U>(*value)) return *out;
  constexpr U kMax = std::numeric_limits<U>::max();
  if constexpr (kMax == std::numeric_limits<std::uint64_t>::max()) {
    refuse(name, "non-negative integer", *value);
  } else {
    refuse(name, "integer in [0, " + std::to_string(kMax) + "]", *value);
  }
}

}  // namespace p2pse::support
