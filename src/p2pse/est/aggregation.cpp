#include "p2pse/est/aggregation.hpp"

#include <stdexcept>

#include "p2pse/est/exchange_round.hpp"

namespace p2pse::est {

Aggregation::Aggregation(AggregationConfig config)
    : Estimator(kInfo), config_(config) {
  if (config_.rounds_per_epoch == 0) {
    throw std::invalid_argument("Aggregation: rounds_per_epoch must be >= 1");
  }
}

std::string Aggregation::describe() const {
  std::string out =
      "rounds_per_epoch=" + std::to_string(config_.rounds_per_epoch);
  if (!config_.push_pull) out += " push_pull=false";
  return out;
}

void Aggregation::ensure_capacity(std::size_t slots) {
  if (values_.size() < slots) values_.resize(slots, 0.0);
}

void Aggregation::start_epoch(sim::Simulator& sim, net::NodeId initiator) {
  if (!sim.graph().is_alive(initiator)) {
    throw std::invalid_argument("Aggregation: epoch initiator must be alive");
  }
  ensure_capacity(sim.graph().slot_count());
  for (const net::NodeId id : sim.graph().alive_nodes()) values_[id] = 0.0;
  values_[initiator] = 1.0;
  initiator_ = initiator;
  epoch_delay_ = 0.0;
  ++epoch_;
}

void Aggregation::run_round(sim::Simulator& sim, support::RngStream& rng) {
  ensure_capacity(sim.graph().slot_count());
#if P2PSE_CHECK_ENABLED
  const double mass_before = total_mass(sim);
#endif
  epoch_delay_ += detail::run_exchange_round(
      sim, rng, config_.push_pull,
      [&](net::NodeId peer) { __builtin_prefetch(&values_[peer], 1); },
      [&](net::NodeId id, net::NodeId peer) {
        if (config_.push_pull) {
          const double mean = 0.5 * (values_[id] + values_[peer]);
          values_[id] = mean;
          values_[peer] = mean;
        } else {
          // Push-only variant: the receiver absorbs half the sender's
          // value. Mass stays conserved but mixing is slower (ablation).
          const double half = 0.5 * values_[id];
          values_[id] -= half;
          values_[peer] += half;
        }
      });
#if P2PSE_CHECK_ENABLED
  detail::check_mass_conserved(mass_before, total_mass(sim));
#endif
}

double Aggregation::value_at(net::NodeId id) const noexcept {
  return id < values_.size() ? values_[id] : 0.0;
}

Estimate Aggregation::estimate_at(const sim::Simulator& sim,
                                  net::NodeId id) const noexcept {
  Estimate estimate;
  estimate.time = sim.now();
  estimate.messages = 0;
  estimate.delay = epoch_delay_;
  const double v = value_at(id);
  if (!sim.graph().is_alive(id) || v <= 0.0) {
    estimate.valid = false;
    estimate.value = 0.0;
    return estimate;
  }
  estimate.value = 1.0 / v;
  return estimate;
}

double Aggregation::total_mass(const sim::Simulator& sim) const {
  double total = 0.0;
  for (const net::NodeId id : sim.graph().alive_nodes()) {
    total += value_at(id);
  }
  return total;
}

}  // namespace p2pse::est
