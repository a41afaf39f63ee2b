#include "p2pse/est/flat_polling.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "p2pse/support/csv.hpp"

namespace p2pse::est {

FlatPolling::FlatPolling(FlatPollingConfig config)
    : Estimator(kInfo), config_(config) {
  if (config_.reply_probability <= 0.0 || config_.reply_probability > 1.0) {
    throw std::invalid_argument(
        "FlatPolling: reply_probability must be in (0, 1]");
  }
}

std::string FlatPolling::describe() const {
  return "p=" + support::format_double(config_.reply_probability);
}

Estimate FlatPolling::estimate_point(sim::Simulator& sim,
                                     net::NodeId initiator,
                                     support::RngStream& rng) {
  const FlatPollingResult result = run_once(sim, initiator, rng);
  last_coverage_ = static_cast<double>(result.reached) /
                   static_cast<double>(sim.graph().size());
  return result.estimate;
}

FlatPollingResult FlatPolling::run_once(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) const {
  FlatPollingResult result;
  const std::uint64_t baseline = sim.meter().total();
  const net::Graph& graph = sim.graph();
  if (!graph.is_alive(initiator)) {
    result.estimate = Estimate::invalid_at(sim.now());
    return result;
  }

  // BFS flood: every informed node forwards the poll to all its neighbors
  // once. Each transmitted copy is a message (already-informed receivers
  // still cost the send). Copies travel in parallel, so a flood round costs
  // the maximum latency among its delivered copies; a dropped copy simply
  // fails to inform its target (the flood's redundancy is the protocol's
  // only repair mechanism — no retransmission).
  std::vector<bool> informed(graph.slot_count(), false);
  std::vector<net::NodeId> frontier{initiator};
  informed[initiator] = true;
  result.reached = 1;
  double flood_delay = 0.0;
  while (!frontier.empty()) {
    std::vector<net::NodeId> next;
    double round_max = 0.0;
    for (const net::NodeId u : frontier) {
      for (const net::NodeId v : graph.neighbors(u)) {
        const sim::Channel::Delivery d =
            sim.send(sim::MessageClass::kGossipSpread, u, v);
        if (!d.delivered) continue;
        round_max = std::max(round_max, d.latency);
        if (!informed[v]) {
          informed[v] = true;
          ++result.reached;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    flood_delay += round_max;
  }

  // Flat-probability report; a dropped reply is never counted.
  double estimate = 1.0;
  double reply_max = 0.0;
  for (const net::NodeId id : graph.alive_nodes()) {
    if (id == initiator || !informed[id]) continue;
    if (rng.bernoulli(config_.reply_probability)) {
      const sim::Channel::Delivery d =
          sim.send(sim::MessageClass::kPollReply, id, initiator);
      ++result.replies;
      if (d.delivered) {
        reply_max = std::max(reply_max, d.latency);
        estimate += 1.0 / config_.reply_probability;
      }
    }
  }

  result.estimate.value = estimate;
  result.estimate.time = sim.now();
  result.estimate.messages = sim.meter().since(baseline);
  const sim::Channel& channel = sim.channel();
  result.estimate.delay =
      flood_delay + (channel.lossy()
                         ? std::max(reply_max, channel.config().timeout)
                         : reply_max);
  return result;
}

}  // namespace p2pse::est
