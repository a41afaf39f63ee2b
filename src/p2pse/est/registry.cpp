#include "p2pse/est/registry.hpp"

#include <initializer_list>
#include <stdexcept>

#include "p2pse/support/spec_reader.hpp"

namespace p2pse::est {
namespace {

using Overrides = EstimatorRegistry::Overrides;

/// Converts override values on access (shared support::SpecValueReader
/// machinery). Key validation happens once in EstimatorRegistry::build
/// against the entry's registered key list, so factories never re-state
/// which keys exist.
class OverrideReader : public support::SpecValueReader {
 public:
  OverrideReader(std::string_view name, const Overrides& overrides)
      : support::SpecValueReader(std::string(name), overrides) {}
};

EstimatorRegistry make_global() {
  EstimatorRegistry registry;

  registry.add("sample_collide", {"l", "T", "estimator"},
               [](const Overrides& o) {
    OverrideReader reader("sample_collide", o);
    SampleCollideConfig config;
    config.collisions =
        static_cast<std::uint32_t>(reader.get_uint("l", config.collisions));
    config.timer = reader.get_double("T", config.timer);
    if (const std::string* kind = reader.find("estimator")) {
      if (*kind == "quadratic") {
        config.estimator = CollisionEstimator::kQuadratic;
      } else if (*kind == "mle") {
        config.estimator = CollisionEstimator::kMaximumLikelihood;
      } else {
        reader.bad_value("estimator", "quadratic|mle", *kind);
      }
    }
    return std::make_unique<SampleCollideEstimator>(config);
  });

  registry.add(
      "hops_sampling",
      {"gossip_to", "gossip_for", "gossip_until", "min_hops", "oracle",
       "last_k"},
      [](const Overrides& o) {
        OverrideReader reader("hops_sampling", o);
        HopsSamplingEstimatorConfig config;
        config.hops.gossip_to = static_cast<std::uint32_t>(
            reader.get_uint("gossip_to", config.hops.gossip_to));
        config.hops.gossip_for = static_cast<std::uint32_t>(
            reader.get_uint("gossip_for", config.hops.gossip_for));
        config.hops.gossip_until = static_cast<std::uint32_t>(
            reader.get_uint("gossip_until", config.hops.gossip_until));
        config.hops.min_hops_reporting = static_cast<std::uint32_t>(
            reader.get_uint("min_hops", config.hops.min_hops_reporting));
        config.hops.oracle_distances =
            reader.get_bool("oracle", config.hops.oracle_distances);
        config.smooth_last_k = reader.get_uint("last_k", 0);
        return std::make_unique<HopsSamplingEstimator>(config);
      });

  registry.add("random_tour", {"max_steps"}, [](const Overrides& o) {
    OverrideReader reader("random_tour", o);
    RandomTourConfig config;
    config.max_steps = reader.get_uint("max_steps", config.max_steps);
    return std::make_unique<RandomTourEstimator>(config);
  });

  registry.add("interval_density", {"leafset"}, [](const Overrides& o) {
    OverrideReader reader("interval_density", o);
    IntervalDensityConfig config;
    config.leafset = reader.get_uint("leafset", config.leafset);
    return std::make_unique<IntervalDensityEstimator>(config);
  });

  registry.add("inverted_birthday", {"walk_length", "l"},
               [](const Overrides& o) {
    OverrideReader reader("inverted_birthday", o);
    InvertedBirthdayConfig config;
    config.walk_length = static_cast<std::uint32_t>(
        reader.get_uint("walk_length", config.walk_length));
    config.collisions =
        static_cast<std::uint32_t>(reader.get_uint("l", config.collisions));
    return std::make_unique<InvertedBirthdayEstimator>(config);
  });

  registry.add("flat_polling", {"p"}, [](const Overrides& o) {
    OverrideReader reader("flat_polling", o);
    FlatPollingConfig config;
    config.reply_probability =
        reader.get_double("p", config.reply_probability);
    return std::make_unique<FlatPollingEstimator>(config);
  });

  registry.add("aggregation", {"rounds", "push_pull"},
               [](const Overrides& o) {
    OverrideReader reader("aggregation", o);
    AggregationConfig config;
    config.rounds_per_epoch = static_cast<std::uint32_t>(
        reader.get_uint("rounds", config.rounds_per_epoch));
    config.push_pull = reader.get_bool("push_pull", config.push_pull);
    return std::make_unique<AggregationEstimator>(config);
  });

  registry.add(
      "aggregation_suite", {"rounds", "instances", "combine"},
      [](const Overrides& o) {
        OverrideReader reader("aggregation_suite", o);
        MultiAggregationConfig config;
        config.rounds_per_epoch = static_cast<std::uint32_t>(
            reader.get_uint("rounds", config.rounds_per_epoch));
        config.instances = static_cast<std::uint32_t>(
            reader.get_uint("instances", config.instances));
        if (const std::string* combine = reader.find("combine")) {
          if (*combine == "median") {
            config.combine = MultiAggregationConfig::Combine::kMedian;
          } else if (*combine == "mean") {
            config.combine = MultiAggregationConfig::Combine::kMean;
          } else {
            reader.bad_value("combine", "median|mean", *combine);
          }
        }
        return std::make_unique<AggregationSuiteEstimator>(config);
      });

  return registry;
}

}  // namespace

EstimatorSpec EstimatorSpec::parse(std::string_view text) {
  support::ParsedSpec parsed = support::parse_spec(text, "estimator spec");
  return EstimatorSpec{std::move(parsed.name), std::move(parsed.overrides)};
}

bool EstimatorSpec::has(std::string_view key) const {
  for (const auto& [k, v] : overrides) {
    if (k == key) return true;
  }
  return false;
}

void EstimatorSpec::set_default(std::string_view key, std::string value) {
  if (!has(key)) overrides.emplace_back(std::string(key), std::move(value));
}

std::string EstimatorSpec::canonical() const {
  std::string out = name;
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += overrides[i].first + "=" + overrides[i].second;
  }
  return out;
}

const EstimatorRegistry& EstimatorRegistry::global() {
  static const EstimatorRegistry registry = make_global();
  return registry;
}

void EstimatorRegistry::add(std::string name, std::vector<std::string> keys,
                            Factory factory) {
  entries_[std::move(name)] = Entry{std::move(keys), std::move(factory)};
}

std::unique_ptr<Estimator> EstimatorRegistry::build(
    const EstimatorSpec& spec) const {
  const auto it = entries_.find(spec.name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [name, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw std::invalid_argument("unknown estimator '" + spec.name +
                                "' (registered: " + known + ")");
  }
  // Validate override keys against the single registered key list so a
  // typo'd key can never silently yield a default-configured estimator.
  support::require_known_keys(spec.overrides, keys_help(spec.name), spec.name,
                              "override key");
  return it->second.factory(spec.overrides);
}

std::unique_ptr<Estimator> EstimatorRegistry::build(
    std::string_view spec_text) const {
  return build(EstimatorSpec::parse(spec_text));
}

bool EstimatorRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> EstimatorRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::string EstimatorRegistry::keys_help(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("unknown estimator '" + std::string(name) +
                                "'");
  }
  std::string out;
  for (const auto& key : it->second.keys) {
    if (!out.empty()) out += ", ";
    out += key;
  }
  return out;
}

}  // namespace p2pse::est
