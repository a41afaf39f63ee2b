#include "p2pse/support/spec_reader.hpp"

#include <stdexcept>

namespace p2pse::support {
namespace {

/// Appends one override, rejecting a repeated key: a duplicate is almost
/// always an editing mistake in a sweep command line, and silently letting
/// one occurrence win would corrupt the comparison the spec was written
/// for.
void push_override(SpecOverrides& overrides, std::string_view key,
                   std::string_view value, std::string_view context,
                   const std::string& name) {
  for (const auto& [existing, unused] : overrides) {
    if (existing == key) {
      throw std::invalid_argument(std::string(context) + " '" + name +
                                  "': duplicate key '" + std::string(key) +
                                  "'");
    }
  }
  overrides.emplace_back(std::string(key), std::string(value));
}

}  // namespace

void require_known_keys(const SpecOverrides& overrides,
                        std::string_view valid_keys, std::string_view context,
                        std::string_view noun) {
  for (const auto& [key, value] : overrides) {
    bool known = false;
    std::string_view rest = valid_keys;
    while (!rest.empty() && !known) {
      const std::size_t comma = rest.find(',');
      std::string_view token = rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view{}
                                             : rest.substr(comma + 1);
      while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
      known = token == key;
    }
    if (!known) {
      throw std::invalid_argument(
          std::string(context) + ": unknown " + std::string(noun) + " '" +
          key + "' (valid keys: " +
          (valid_keys.empty() ? "none" : std::string(valid_keys)) + ")");
    }
  }
}

ParsedSpec parse_spec(std::string_view text, std::string_view context) {
  ParsedSpec spec;
  const std::size_t colon = text.find(':');
  spec.name = std::string(text.substr(0, colon));
  if (spec.name.empty()) {
    throw std::invalid_argument(std::string(context) + ": empty name in '" +
                                std::string(text) + "'");
  }
  if (colon == std::string_view::npos) return spec;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument(std::string(context) + " '" + spec.name +
                                  "': override '" + std::string(item) +
                                  "' is not of the form key=value");
    }
    push_override(spec.overrides, item.substr(0, eq), item.substr(eq + 1),
                  context, spec.name);
  }
  return spec;
}

ParsedSpec parse_model_spec(std::string_view text, std::string_view context) {
  ParsedSpec spec;
  std::size_t item_index = 0;
  while (!text.empty() || item_index == 0) {
    const std::size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    ++item_index;
    if (item.empty()) {
      if (item_index == 1) {
        throw std::invalid_argument(std::string(context) +
                                    ": empty model name");
      }
      continue;
    }
    const std::size_t eq = item.find('=');
    if (item_index == 1) {
      if (eq != std::string_view::npos) {
        throw std::invalid_argument(
            std::string(context) + ": first item must be a model name, got '" +
            std::string(item) + "'");
      }
      spec.name = std::string(item);
      continue;
    }
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument(std::string(context) + " '" + spec.name +
                                  "': override '" + std::string(item) +
                                  "' is not of the form key=value");
    }
    push_override(spec.overrides, item.substr(0, eq), item.substr(eq + 1),
                  context, spec.name);
  }
  return spec;
}

const std::string* SpecValueReader::find(std::string_view key) const {
  for (const auto& [k, v] : *overrides_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void SpecValueReader::bad_value(std::string_view key,
                                std::string_view expected,
                                std::string_view value) const {
  throw std::invalid_argument(context_ + ": key '" + std::string(key) +
                              "' expects " + std::string(expected) +
                              ", got '" + std::string(value) + "'");
}

double SpecValueReader::get_double(std::string_view key,
                                   double fallback) const {
  const std::string* raw = find(key);
  if (!raw) return fallback;
  if (const auto value = parse_number<double>(*raw)) return *value;
  bad_value(key, "a finite number", *raw);
}

bool SpecValueReader::get_bool(std::string_view key, bool fallback) const {
  const std::string* raw = find(key);
  if (!raw) return fallback;
  if (*raw == "true" || *raw == "1" || *raw == "yes") return true;
  if (*raw == "false" || *raw == "0" || *raw == "no") return false;
  bad_value(key, "a boolean", *raw);
}

std::string SpecValueReader::get_string(std::string_view key,
                                        std::string fallback) const {
  const std::string* raw = find(key);
  return raw ? *raw : std::move(fallback);
}

}  // namespace p2pse::support
