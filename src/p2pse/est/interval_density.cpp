#include "p2pse/est/interval_density.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace p2pse::est {

IdentifierSpace::IdentifierSpace(const net::Graph& graph,
                                 support::RngStream& rng) {
  ring_.reserve(graph.size());
  // One batched fill instead of a per-node draw; same stream order (one
  // uniform per alive node, in alive-list order).
  const std::span<const net::NodeId> alive = graph.alive_nodes();
  std::vector<double> ids(alive.size());
  rng.fill_uniform(ids);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    ring_.push_back(Slot{ids[i], alive[i]});
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Slot& a, const Slot& b) { return a.id < b.id; });
  slot_of_node_.assign(graph.slot_count(), net::kInvalidNode);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    slot_of_node_[ring_[i].node] = static_cast<std::uint32_t>(i);
  }
}

std::size_t IdentifierSpace::position_of(net::NodeId node) const {
  if (node >= slot_of_node_.size()) return ring_.size();
  const std::uint32_t pos = slot_of_node_[node];
  return pos == net::kInvalidNode ? ring_.size() : pos;
}

double IdentifierSpace::id_of(net::NodeId node) const {
  const std::size_t pos = position_of(node);
  return pos >= ring_.size() ? std::numeric_limits<double>::quiet_NaN()
                             : ring_[pos].id;
}

std::vector<net::NodeId> IdentifierSpace::successors(net::NodeId node,
                                                     std::size_t count) const {
  std::vector<net::NodeId> out;
  const std::size_t pos = position_of(node);
  if (pos >= ring_.size() || ring_.size() < 2) return out;
  count = std::min(count, ring_.size() - 1);
  out.reserve(count);
  for (std::size_t step = 1; step <= count; ++step) {
    out.push_back(ring_[(pos + step) % ring_.size()].node);
  }
  return out;
}

double IdentifierSpace::ring_distance(net::NodeId node,
                                      net::NodeId other) const {
  const double a = id_of(node);
  const double b = id_of(other);
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double d = b - a;
  return d >= 0.0 ? d : d + 1.0;
}

IntervalDensity::IntervalDensity(IntervalDensityConfig config)
    : Estimator(kInfo), config_(config) {
  if (config_.leafset < 2) {
    throw std::invalid_argument("IntervalDensity: leafset must be >= 2");
  }
}

std::string IntervalDensity::describe() const {
  return "leafset=" + std::to_string(config_.leafset);
}

Estimate IntervalDensity::estimate_point(sim::Simulator& sim,
                                         net::NodeId initiator,
                                         support::RngStream& rng) {
  // The identifier ring is the structured overlay's routing state; rebuild it
  // whenever membership changed (a real DHT repairs leafsets incrementally —
  // the estimate is the same, only the maintenance cost differs, and the
  // meter charges the estimate itself, not the maintenance).
  if (!ids_ || ids_->population() != sim.graph().size() ||
      std::isnan(ids_->id_of(initiator))) {
    ids_.emplace(sim.graph(), rng);
  }
  return estimate_once(sim, *ids_, initiator);
}

Estimate IntervalDensity::estimate_once(sim::Simulator& sim,
                                        const IdentifierSpace& ids,
                                        net::NodeId node) const {
  const std::uint64_t baseline = sim.meter().total();
  if (!sim.graph().is_alive(node)) {
    return Estimate::invalid_at(sim.now());
  }
  const auto leafset = ids.successors(node, config_.leafset);
  sim.meter().count(sim::MessageClass::kControl, leafset.size());
  Estimate estimate;
  estimate.time = sim.now();
  estimate.messages = sim.meter().since(baseline);
  if (leafset.size() < 2) {
    // Degenerate ring: with k < 2 successors the inverse estimator is
    // undefined; report the population we can actually see.
    estimate.value = static_cast<double>(leafset.size() + 1);
    return estimate;
  }
  const double d_k = ids.ring_distance(node, leafset.back());
  if (!(d_k > 0.0)) {
    estimate.valid = false;
    return estimate;
  }
  estimate.value = static_cast<double>(leafset.size() - 1) / d_k;
  return estimate;
}

}  // namespace p2pse::est
