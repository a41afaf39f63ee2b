#include "p2pse/est/inverted_birthday.hpp"

#include <stdexcept>
#include <unordered_set>

namespace p2pse::est {

InvertedBirthday::InvertedBirthday(InvertedBirthdayConfig config)
    : Estimator(kInfo), config_(config) {
  if (config_.collisions == 0) {
    throw std::invalid_argument("InvertedBirthday: collisions must be >= 1");
  }
}

std::string InvertedBirthday::describe() const {
  return "walk_length=" + std::to_string(config_.walk_length) +
         " l=" + std::to_string(config_.collisions);
}

InvertedBirthday::Sample InvertedBirthday::sample(
    sim::Simulator& sim, net::NodeId initiator,
    support::RngStream& rng) const {
  const net::Graph& graph = sim.graph();
  // Fixed-length walks carry no timer state, so loss handling matches the
  // walk-class convention: hop-reliable forwarding, bounded-ARQ reply. A
  // permanently lost reply means the initiator never learns the sample
  // (it times out and launches the next walk, as in Sample&Collide).
  Sample out;
  net::NodeId current = initiator;
  std::uint32_t steps = 0;
  for (std::uint32_t step = 0; step < config_.walk_length; ++step) {
    const net::NodeId next = graph.random_neighbor(current, rng);
    if (next == net::kInvalidNode) break;
    out.elapsed +=
        sim.send_reliable(sim::MessageClass::kWalkStep, current, next).latency;
    current = next;
    ++steps;
  }
  // A walk that never left the initiator (isolated node) sampled itself
  // locally: no reply crosses the network (same rule as Sample&Collide).
  if (steps > 0) {
    sim.record_walk_hops(steps);
    const sim::Channel::Delivery reply =
        sim.send_arq(sim::MessageClass::kSampleReply, current, initiator);
    out.elapsed += reply.latency;
    out.lost = !reply.delivered;
  }
  out.node = current;
  return out;
}

Estimate InvertedBirthday::estimate_once(sim::Simulator& sim,
                                         net::NodeId initiator,
                                         support::RngStream& rng) const {
  const std::uint64_t baseline = sim.meter().total();
  if (!sim.graph().is_alive(initiator)) {
    return Estimate::invalid_at(sim.now());
  }
  std::unordered_set<net::NodeId> seen;
  std::uint64_t samples = 0;
  std::uint64_t attempts = 0;
  std::uint32_t collisions = 0;
  double delay = 0.0;
  while (collisions < config_.collisions && attempts < config_.max_samples) {
    const Sample s = sample(sim, initiator, rng);
    ++attempts;
    if (s.lost) {
      delay += sim.channel().config().timeout;
      continue;
    }
    delay += s.elapsed;
    ++samples;
    if (!seen.insert(s.node).second) ++collisions;
  }
  Estimate estimate;
  estimate.time = sim.now();
  estimate.messages = sim.meter().since(baseline);
  estimate.delay = delay;
  if (collisions < config_.collisions) {
    estimate.valid = false;
    return estimate;
  }
  estimate.value = static_cast<double>(samples) * static_cast<double>(samples) /
                   (2.0 * static_cast<double>(config_.collisions));
  return estimate;
}

}  // namespace p2pse::est
