#include "p2pse/est/aggregation_suite.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "p2pse/est/exchange_round.hpp"

namespace p2pse::est {

MultiAggregation::MultiAggregation(MultiAggregationConfig config)
    : Estimator(kInfo), config_(config) {
  if (config_.rounds_per_epoch == 0) {
    throw std::invalid_argument("MultiAggregation: rounds_per_epoch >= 1");
  }
  if (config_.instances == 0) {
    throw std::invalid_argument("MultiAggregation: instances >= 1");
  }
  values_.resize(config_.instances);
}

std::string MultiAggregation::describe() const {
  return "rounds_per_epoch=" + std::to_string(config_.rounds_per_epoch) +
         " instances=" + std::to_string(config_.instances) + " combine=" +
         (config_.combine == MultiAggregationConfig::Combine::kMedian
              ? "median"
              : "mean");
}

void MultiAggregation::ensure_capacity(std::size_t slots) {
  for (auto& v : values_) {
    if (v.size() < slots) v.resize(slots, 0.0);
  }
}

void MultiAggregation::start_epoch(sim::Simulator& sim,
                                   support::RngStream& rng) {
  if (sim.graph().empty()) {
    throw std::invalid_argument("MultiAggregation: empty overlay");
  }
  ensure_capacity(sim.graph().slot_count());
  for (auto& v : values_) {
    for (const net::NodeId id : sim.graph().alive_nodes()) v[id] = 0.0;
  }
  for (std::uint32_t i = 0; i < config_.instances; ++i) {
    values_[i][sim.graph().random_alive(rng)] = 1.0;
  }
  epoch_delay_ = 0.0;
}

void MultiAggregation::run_round(sim::Simulator& sim,
                                 support::RngStream& rng) {
  ensure_capacity(sim.graph().slot_count());
#if P2PSE_CHECK_ENABLED
  std::vector<double> mass_before;
  for (const auto& v : values_) {
    mass_before.push_back(detail::alive_mass(sim.graph(), v));
  }
#endif
  // All instances piggyback on one push-pull exchange: 2 messages total.
  // A masked exchange is masked for every instance, so mass is conserved
  // per instance and loss only slows convergence.
  epoch_delay_ += detail::run_exchange_round(
      sim, rng, /*push_pull=*/true,
      [&](net::NodeId peer) {
        for (const auto& v : values_) __builtin_prefetch(&v[peer], 1);
      },
      [&](net::NodeId id, net::NodeId peer) {
        for (auto& v : values_) {
          const double mean = 0.5 * (v[id] + v[peer]);
          v[id] = mean;
          v[peer] = mean;
        }
      });
#if P2PSE_CHECK_ENABLED
  for (std::size_t i = 0; i < values_.size(); ++i) {
    detail::check_mass_conserved(mass_before[i],
                                 detail::alive_mass(sim.graph(), values_[i]));
  }
#endif
}

double MultiAggregation::value_of(std::uint32_t instance,
                                  net::NodeId id) const noexcept {
  if (instance >= values_.size()) return 0.0;
  const auto& v = values_[instance];
  return id < v.size() ? v[id] : 0.0;
}

std::vector<double> MultiAggregation::instance_estimates(net::NodeId id) const {
  std::vector<double> out;
  out.reserve(values_.size());
  for (const auto& v : values_) {
    if (id < v.size() && v[id] > 0.0) out.push_back(1.0 / v[id]);
  }
  return out;
}

Estimate MultiAggregation::estimate_at(const sim::Simulator& sim,
                                       net::NodeId id) const {
  Estimate estimate;
  estimate.time = sim.now();
  estimate.delay = epoch_delay_;
  if (!sim.graph().is_alive(id)) {
    estimate.valid = false;
    return estimate;
  }
  std::vector<double> values = instance_estimates(id);
  if (values.empty()) {
    estimate.valid = false;
    return estimate;
  }
  if (config_.combine == MultiAggregationConfig::Combine::kMean) {
    double acc = 0.0;
    for (const double v : values) acc += v;
    estimate.value = acc / static_cast<double>(values.size());
  } else {
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    estimate.value = values.size() % 2 == 1
                         ? values[mid]
                         : 0.5 * (values[mid - 1] + values[mid]);
  }
  return estimate;
}

}  // namespace p2pse::est
