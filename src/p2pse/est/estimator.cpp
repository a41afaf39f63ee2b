#include "p2pse/est/estimator.hpp"

#include <limits>
#include <stdexcept>

namespace p2pse::est {

void Estimator::wrong_mode(std::string_view method) const {
  throw std::logic_error(std::string(name()) + ": " + std::string(method) +
                         " is not supported by a " +
                         (mode() == Mode::kPoint ? "point" : "epoch") +
                         std::string("-mode estimator"));
}

Estimate Estimator::estimate(sim::Simulator& sim, net::NodeId initiator,
                             support::RngStream& rng) {
  if (mode() == Mode::kPoint) return estimate_point(sim, initiator, rng);
  const std::uint64_t before = sim.meter().total();
  start_epoch(sim, initiator, rng);
  for (std::uint32_t r = 0; r < rounds_per_epoch(); ++r) run_round(sim, rng);
  Estimate e = epoch_estimate(sim, initiator);
  e.messages = sim.meter().since(before);
  return e;
}

Estimate Estimator::estimate_point(sim::Simulator&, net::NodeId,
                                   support::RngStream&) {
  wrong_mode("estimate_point");
}

double Estimator::last_coverage() const noexcept {
  return std::numeric_limits<double>::quiet_NaN();
}

void Estimator::start_epoch(sim::Simulator&, net::NodeId,
                            support::RngStream&) {
  wrong_mode("start_epoch");
}

void Estimator::run_round(sim::Simulator&, support::RngStream&) {
  wrong_mode("run_round");
}

Estimate Estimator::epoch_estimate(const sim::Simulator&, net::NodeId) const {
  wrong_mode("epoch_estimate");
}

std::uint32_t Estimator::rounds_per_epoch() const noexcept { return 0; }

}  // namespace p2pse::est
