#include "p2pse/support/args.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>

namespace p2pse::support {
namespace {

bool looks_like_option(std::string_view arg) {
  return arg.size() >= 3 && arg.substr(0, 2) == "--";
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (!looks_like_option(arg)) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      options_.emplace(std::string(body.substr(0, eq)),
                       std::string(body.substr(eq + 1)));
      continue;
    }
    // "--name value" unless the next token is itself an option, in which
    // case "--name" is a boolean flag.
    if (i + 1 < argc && !looks_like_option(argv[i + 1])) {
      options_.emplace(std::string(body), std::string(argv[i + 1]));
      ++i;
    } else {
      options_.emplace(std::string(body), "true");
    }
  }
}

bool Args::has(std::string_view name) const {
  return options_.find(name) != options_.end();
}

void Args::require_known(std::span<const std::string_view> known) const {
  std::string unknown;
  for (const auto& [name, value] : options_) {
    bool found = false;
    for (const std::string_view candidate : known) found |= (name == candidate);
    if (!found) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + name;
    }
  }
  if (unknown.empty()) return;
  std::string valid;
  for (const std::string_view candidate : known) {
    if (!valid.empty()) valid += ", ";
    valid += "--" + std::string(candidate);
  }
  throw std::invalid_argument(
      "unknown option(s) " + unknown +
      (valid.empty() ? std::string(" (this command takes none)")
                     : " (valid: " + valid + ")"));
}

void Args::require_known(std::initializer_list<std::string_view> known) const {
  require_known(std::span<const std::string_view>(known.begin(), known.size()));
}

std::optional<std::string> Args::raw(std::string_view name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(std::string_view name,
                             std::string default_value) const {
  const auto value = raw(name);
  return value ? *value : std::move(default_value);
}

double Args::get_double(std::string_view name, double default_value) const {
  const auto value = raw(name);
  if (!value) return default_value;
  if (const std::optional<double> out = parse_number<double>(*value)) {
    return *out;
  }
  refuse(name, "finite number", *value);
}

void Args::refuse(std::string_view name, std::string_view expected,
                  const std::string& value) {
  throw std::invalid_argument("--" + std::string(name) + ": expected " +
                              std::string(expected) + ", got '" + value + "'");
}

bool Args::get_bool(std::string_view name, bool default_value) const {
  const auto value = raw(name);
  if (!value) return default_value;
  if (*value == "true" || *value == "1" || *value == "yes" || *value == "on") {
    return true;
  }
  if (*value == "false" || *value == "0" || *value == "no" || *value == "off") {
    return false;
  }
  throw std::invalid_argument("--" + std::string(name) +
                              ": expected boolean, got '" + *value + "'");
}

bool handle_flags(
    const Args& args, std::string_view what,
    std::initializer_list<std::span<const Flag>> tables,
    const std::function<std::string(std::string_view)>& default_of) {
  std::vector<Flag> flags;
  for (const std::span<const Flag> table : tables) {
    flags.insert(flags.end(), table.begin(), table.end());
  }
  if (!args.help_requested()) {
    std::vector<std::string_view> names;
    for (const Flag& flag : flags) names.push_back(flag.name);
    args.require_known(names);
    return false;
  }
  std::printf("%s — %.*s\n", args.program().c_str(),
              static_cast<int>(what.size()), what.data());
  if (!flags.empty()) std::printf("options:\n");
  // "--name VALUE" labels in one aligned column, help lines in the next.
  std::vector<std::string> labels;
  std::size_t width = 0;
  for (const Flag& flag : flags) {
    std::string label = "--";
    label.append(flag.name);
    if (!flag.value.empty()) label.append(" ").append(flag.value);
    width = std::max(width, label.size());
    labels.push_back(std::move(label));
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    std::string help(flags[i].help);
    const std::string fallback = default_of ? default_of(flags[i].name) : "";
    if (!fallback.empty()) {
      help.append(" (default ").append(fallback).append(")");
    }
    for (std::size_t at = help.find('\n'); at != std::string::npos;
         at = help.find('\n', at + 1)) {
      help.insert(at + 1, width + 4, ' ');
    }
    std::printf("  %-*s  %s\n", static_cast<int>(width), labels[i].c_str(),
                help.c_str());
  }
  return true;
}

int run_main(int argc, const char* const* argv,
             const std::function<int(const Args&)>& body) {
  const char* program = argc > 0 ? argv[0] : "p2pse";
  try {
    return body(Args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", program, error.what());
    return 1;
  }
}

}  // namespace p2pse::support
