#pragma once
// Minimal command-line parsing for bench/example binaries.
// Supported syntax: --name value, --name=value, --flag (boolean true), --help.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t default_value) const;
  [[nodiscard]] std::uint64_t get_uint(std::string_view name,
                                       std::uint64_t default_value) const;
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

  std::string program_;
  std::map<std::string, std::string, std::less<>> options_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

}  // namespace p2pse::support
