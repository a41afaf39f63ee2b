#pragma once
// Name-keyed estimator factory: builds any est::Estimator from a
// `(name, key=value overrides)` spec, parsed from text of the form
//
//   name                      e.g. "aggregation"
//   name:key=value,key=value  e.g. "sample_collide:l=10,T=2"
//
// Unknown names and unknown override keys are hard errors that list the
// valid candidates — a typo'd spec must never silently fall back to a
// default configuration (that would corrupt comparative sweeps).
//
// The registry is what makes the figure harness and the `p2pse_matrix`
// driver data-driven: every estimator × scenario × size combination is one
// spec string away, including pairs the paper never plotted.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "p2pse/est/estimator.hpp"
#include "p2pse/support/spec_reader.hpp"

namespace p2pse::est {

/// Parsed estimator specification: a registry name plus ordered
/// key=value overrides applied on top of the estimator's defaults.
struct EstimatorSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> overrides;

  /// Parses "name" or "name:k=v,k=v". Throws std::invalid_argument on an
  /// empty name or a malformed override (missing '=' / empty key).
  [[nodiscard]] static EstimatorSpec parse(std::string_view text);

  [[nodiscard]] bool has(std::string_view key) const;
  /// Appends `key=value` unless the key is already present (used by the
  /// figure harness to inject paper defaults under CLI overrides).
  void set_default(std::string_view key, std::string value);

  /// Canonical "name:k=v,..." round-trip form.
  [[nodiscard]] std::string canonical() const;
};

class EstimatorRegistry {
 public:
  /// Converts an estimator's override values; its context is the name, so
  /// malformed values are reported against the spec they came from.
  using Factory = std::function<std::unique_ptr<Estimator>(
      const support::SpecValueReader&)>;

  /// The process-wide registry with every built-in estimator registered.
  [[nodiscard]] static const EstimatorRegistry& global();

  EstimatorRegistry() = default;

  /// Registers a factory; replaces an existing entry with the same name.
  /// `keys` is the single source of truth for the estimator's valid
  /// override keys: build() validates against it and keys_help() renders it,
  /// so the factory only converts values.
  void add(std::string_view name, std::vector<std::string> keys,
           Factory factory);

  /// Builds an estimator. Throws std::invalid_argument for an unknown name
  /// (listing every registered name) or an unknown/malformed override key
  /// (listing the estimator's valid keys).
  [[nodiscard]] std::unique_ptr<Estimator> build(
      const EstimatorSpec& spec) const;
  [[nodiscard]] std::unique_ptr<Estimator> build(
      std::string_view spec_text) const;

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  /// Valid override keys of one estimator, e.g. "l, T, estimator". Throws
  /// for unknown names.
  [[nodiscard]] std::string keys_help(std::string_view name) const;

 private:
  struct Entry {
    std::vector<std::string> keys;
    Factory factory;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace p2pse::est
