#include "p2pse/est/inverted_birthday.hpp"

#include <stdexcept>

namespace p2pse::est {

InvertedBirthday::InvertedBirthday(InvertedBirthdayConfig config)
    : Estimator(kInfo), config_(config) {
  // A zero-hop walk samples its own initiator every time: the first two
  // samples collide and the estimate is 2 whatever the overlay size.
  if (config_.walk_length == 0) {
    throw std::invalid_argument("InvertedBirthday: walk_length must be >= 1");
  }
  if (config_.collisions == 0) {
    throw std::invalid_argument("InvertedBirthday: collisions must be >= 1");
  }
}

std::string InvertedBirthday::describe() const {
  return "walk_length=" + std::to_string(config_.walk_length) +
         " l=" + std::to_string(config_.collisions);
}

Estimate InvertedBirthday::estimate_point(sim::Simulator& sim,
                                          net::NodeId initiator,
                                          support::RngStream& rng) {
  if (!sim.graph().is_alive(initiator)) {
    return Estimate::invalid_at(sim.now());
  }
  const CollisionRun run =
      collide(sim, config_.collisions, config_.max_samples, [&] {
        return walk_to_sample<HopDelivery::kReliable>(
            sim, initiator, config_.walk_length, rng, kFixedLength);
      });
  Estimate estimate = run.estimate(sim.now());
  if (estimate.valid) {
    estimate.value = birthday_estimate(run.samples, config_.collisions);
  }
  return estimate;
}

}  // namespace p2pse::est
