#include "p2pse/est/registry.hpp"

#include <initializer_list>
#include <stdexcept>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/aggregation_suite.hpp"
#include "p2pse/est/flat_polling.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/interval_density.hpp"
#include "p2pse/est/inverted_birthday.hpp"
#include "p2pse/est/random_tour.hpp"
#include "p2pse/est/sample_collide.hpp"

namespace p2pse::est {
namespace {

using Reader = support::SpecValueReader;

EstimatorRegistry make_global() {
  EstimatorRegistry registry;

  registry.add(SampleCollide::kInfo.name, {"l", "T", "estimator"},
               [](const Reader& reader) {
    SampleCollideConfig config;
    config.collisions = reader.get_uint("l", config.collisions);
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
    return std::make_unique<SampleCollide>(config);
  });

  registry.add(
      HopsSampling::kInfo.name,
      {"gossip_to", "gossip_for", "gossip_until", "min_hops", "oracle",
       "last_k"},
      [](const Reader& reader) {
        HopsSamplingConfig config;
        config.gossip_to = reader.get_uint("gossip_to", config.gossip_to);
        config.gossip_for = reader.get_uint("gossip_for", config.gossip_for);
        config.gossip_until =
            reader.get_uint("gossip_until", config.gossip_until);
        config.min_hops_reporting =
            reader.get_uint("min_hops", config.min_hops_reporting);
        config.oracle_distances =
            reader.get_bool("oracle", config.oracle_distances);
        config.last_k = reader.get_uint("last_k", config.last_k);
        return std::make_unique<HopsSampling>(config);
      });

  registry.add(RandomTour::kInfo.name, {"max_steps"}, [](const Reader& reader) {
    RandomTourConfig config;
    config.max_steps = reader.get_uint("max_steps", config.max_steps);
    return std::make_unique<RandomTour>(config);
  });

  registry.add(IntervalDensity::kInfo.name, {"leafset"},
               [](const Reader& reader) {
    IntervalDensityConfig config;
    config.leafset = reader.get_uint("leafset", config.leafset);
    return std::make_unique<IntervalDensity>(config);
  });

  registry.add(InvertedBirthday::kInfo.name, {"walk_length", "l"},
               [](const Reader& reader) {
    InvertedBirthdayConfig config;
    config.walk_length = reader.get_uint("walk_length", config.walk_length);
    config.collisions = reader.get_uint("l", config.collisions);
    return std::make_unique<InvertedBirthday>(config);
  });

  registry.add(FlatPolling::kInfo.name, {"p"}, [](const Reader& reader) {
    FlatPollingConfig config;
    config.reply_probability =
        reader.get_double("p", config.reply_probability);
    return std::make_unique<FlatPolling>(config);
  });

  registry.add(Aggregation::kInfo.name, {"rounds", "push_pull"},
               [](const Reader& reader) {
    AggregationConfig config;
    config.rounds_per_epoch =
        reader.get_uint("rounds", config.rounds_per_epoch);
    config.push_pull = reader.get_bool("push_pull", config.push_pull);
    return std::make_unique<Aggregation>(config);
  });

  registry.add(
      MultiAggregation::kInfo.name, {"rounds", "instances", "combine"},
      [](const Reader& reader) {
        MultiAggregationConfig config;
        config.rounds_per_epoch =
            reader.get_uint("rounds", config.rounds_per_epoch);
        config.instances = reader.get_uint("instances", config.instances);
        if (const std::string* combine = reader.find("combine")) {
          if (*combine == "median") {
            config.combine = MultiAggregationConfig::Combine::kMedian;
          } else if (*combine == "mean") {
            config.combine = MultiAggregationConfig::Combine::kMean;
          } else {
            reader.bad_value("combine", "median|mean", *combine);
          }
        }
        return std::make_unique<MultiAggregation>(config);
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

void EstimatorRegistry::add(std::string_view name,
                            std::vector<std::string> keys, Factory factory) {
  entries_[std::string(name)] = Entry{std::move(keys), std::move(factory)};
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
  return it->second.factory(
      support::SpecValueReader(spec.name, spec.overrides));
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
