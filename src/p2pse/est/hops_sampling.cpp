#include "p2pse/est/hops_sampling.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "p2pse/net/analysis.hpp"
#include "p2pse/support/check.hpp"

namespace p2pse::est {
namespace {

/// A node scheduled to forward the poll: forwards with hop value
/// `send_hop` for `rounds_left` consecutive rounds.
struct Forwarder {
  net::NodeId node;
  std::uint32_t send_hop;
  std::uint32_t rounds_left;
};

/// Forwarders whose targets are drawn (and prefetched) before the first of
/// them is delivered.
constexpr std::size_t kSpreadBlock = 64;

}  // namespace

HopsSampling::HopsSampling(HopsSamplingConfig config)
    : Estimator(kInfo), config_(config) {
  if (config_.gossip_to == 0) {
    throw std::invalid_argument("HopsSampling: gossipTo must be >= 1");
  }
  if (config_.gossip_for == 0) {
    throw std::invalid_argument("HopsSampling: gossipFor must be >= 1");
  }
  if (config_.gossip_until == 0) {
    throw std::invalid_argument("HopsSampling: gossipUntil must be >= 1");
  }
  if (config_.last_k > 0) smoother_.emplace(config_.last_k);
}

std::string HopsSampling::describe() const {
  std::string out = "gossipTo=" + std::to_string(config_.gossip_to) +
                    " gossipFor=" + std::to_string(config_.gossip_for) +
                    " gossipUntil=" + std::to_string(config_.gossip_until) +
                    " minHopsReporting=" +
                    std::to_string(config_.min_hops_reporting);
  if (config_.oracle_distances) out += " oracle=true";
  if (smoother_) out += " lastK=" + std::to_string(smoother_->window());
  return out;
}

Estimate HopsSampling::estimate_point(sim::Simulator& sim,
                                      net::NodeId initiator,
                                      support::RngStream& rng) {
  const HopsSamplingResult result = run_once(sim, initiator, rng);
  last_coverage_ = static_cast<double>(result.reached) /
                   static_cast<double>(sim.graph().size());
  Estimate estimate = result.estimate;
  if (smoother_ && estimate.valid) {
    estimate.value = smoother_->add(estimate.value);
  }
  return estimate;
}

double HopsSampling::reply_probability(std::uint32_t hops) const noexcept {
  if (hops <= config_.min_hops_reporting) return 1.0;
  return std::pow(static_cast<double>(config_.gossip_to),
                  -static_cast<double>(hops - config_.min_hops_reporting));
}

void HopsSampling::spread(sim::Simulator& sim, net::NodeId initiator,
                          support::RngStream& rng,
                          std::vector<std::uint32_t>& min_hops,
                          HopsSamplingResult& result) const {
  const net::Graph& graph = sim.graph();
  std::vector<std::uint32_t> times_received(graph.slot_count(), 0);

  min_hops[initiator] = 0;
  result.reached = 1;

  std::vector<Forwarder> frontier;
  std::vector<Forwarder> next;
  frontier.push_back(Forwarder{initiator, 1, config_.gossip_for});

  // Block scratch: the targets of up to kSpreadBlock forwarders, drawn
  // before any of them is delivered. Bounded by the block, not the frontier.
  std::vector<net::NodeId> targets;
  std::array<std::size_t, kSpreadBlock> targets_end{};
  std::vector<std::size_t> picks;

  std::uint32_t rounds = 0;
  while (!frontier.empty() && rounds < config_.max_spread_rounds) {
    ++rounds;
    next.clear();
    // The round's forwards travel in parallel; the round ends when the
    // slowest delivered copy lands.
    double round_max = 0.0;
    const auto deliver = [&](const Forwarder& fw, const net::NodeId target) {
      const sim::Channel::Delivery d =
          sim.send(sim::MessageClass::kGossipSpread, fw.node, target);
      if (!d.delivered) return;  // dropped gossip: the target never hears it
      round_max = std::max(round_max, d.latency);
      if (min_hops[target] == net::kUnreached) {
        min_hops[target] = fw.send_hop;
        ++result.reached;
      } else if (fw.send_hop < min_hops[target]) {
        min_hops[target] = fw.send_hop;
      }
      P2PSE_CHECK(min_hops[target] <= fw.send_hop);
      if (times_received[target]++ < config_.gossip_until) {
        const std::uint32_t send_hop = min_hops[target] + 1;
        P2PSE_CHECK(send_hop <= rounds + 1);
        next.push_back(Forwarder{target, send_hop, config_.gossip_for});
      }
    };
    // A forwarder's targets depend only on its adjacency, which no delivery
    // changes, so drawing a block's targets first keeps the RNG order of a
    // plain draw-then-deliver loop while their state is prefetched.
    for (std::size_t begin = 0; begin < frontier.size();
         begin += kSpreadBlock) {
      const std::size_t end = std::min(begin + kSpreadBlock, frontier.size());
      const std::size_t ahead = std::min(end + kSpreadBlock, frontier.size());
      for (std::size_t i = end; i < ahead; ++i) {
        graph.prefetch_node(frontier[i].node);
      }
      targets.clear();
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t first = targets.size();
        const auto neighbors = graph.neighbors(frontier[i].node);
        // gossipTo distinct targets when possible, all neighbors otherwise.
        if (neighbors.size() <= config_.gossip_to) {
          targets.insert(targets.end(), neighbors.begin(), neighbors.end());
        } else {
          picks.resize(config_.gossip_to);
          rng.sample_without_replacement(neighbors.size(), picks);
          for (const std::size_t pick : picks) {
            targets.push_back(neighbors[pick]);
          }
        }
        for (std::size_t t = first; t < targets.size(); ++t) {
          __builtin_prefetch(&min_hops[targets[t]], 1);
          __builtin_prefetch(&times_received[targets[t]], 1);
        }
        targets_end[i - begin] = targets.size();
      }
      std::size_t t = 0;
      for (std::size_t i = begin; i < end; ++i) {
        Forwarder& fw = frontier[i];
        for (; t < targets_end[i - begin]; ++t) deliver(fw, targets[t]);
        // A multi-round forwarder re-enters the frontier until exhausted.
        if (--fw.rounds_left > 0) {
          next.push_back(fw);
        }
      }
    }
    frontier.swap(next);
    result.spread_delay += round_max;
  }
  result.spread_rounds = rounds;
}

HopsSamplingResult HopsSampling::run_once(sim::Simulator& sim,
                                          net::NodeId initiator,
                                          support::RngStream& rng) const {
  HopsSamplingResult result;
  const std::uint64_t baseline = sim.meter().total();
  const net::Graph& graph = sim.graph();
  if (!graph.is_alive(initiator)) {
    result.estimate = Estimate::invalid_at(sim.now());
    return result;
  }

  std::vector<std::uint32_t> min_hops;
  if (config_.oracle_distances) {
    // §V verification: exact BFS distances, full participation, no spread
    // traffic. Unreachable nodes still cannot participate.
    min_hops = net::bfs_distances(graph, initiator);
    result.reached = 0;
    for (const net::NodeId id : graph.alive_nodes()) {
      if (min_hops[id] != net::kUnreached) ++result.reached;
    }
  } else {
    min_hops.assign(graph.slot_count(), net::kUnreached);
    spread(sim, initiator, rng, min_hops, result);
  }

  // Reporting phase: the initiator counts itself; every other polled node
  // replies probabilistically and is weighted by the inverse probability.
  // Replies travel in parallel; a dropped reply is simply never counted
  // (the initiator cannot tell a drop from a node that chose not to reply),
  // deepening the under-estimation the paper already observes.
  double estimate = 1.0;
  double reply_max = 0.0;
  // reply_probability by distance, grown to the largest distance seen.
  std::vector<double> reply_by_hops;
  for (const net::NodeId id : graph.alive_nodes()) {
    if (id == initiator) continue;
    const std::uint32_t h = min_hops[id];
    if (h == net::kUnreached) continue;
    result.max_distance = std::max(result.max_distance, h);
    while (reply_by_hops.size() <= h) {
      reply_by_hops.push_back(reply_probability(
          static_cast<std::uint32_t>(reply_by_hops.size())));
    }
    const double p = reply_by_hops[h];
    if (rng.bernoulli(p)) {
      const sim::Channel::Delivery d =
          sim.send(sim::MessageClass::kPollReply, id, initiator);
      ++result.replies;
      if (d.delivered) {
        reply_max = std::max(reply_max, d.latency);
        estimate += 1.0 / p;
      }
    }
  }

  result.estimate.value = estimate;
  result.estimate.time = sim.now();
  result.estimate.messages = sim.meter().since(baseline);
  result.estimate.valid = true;
  // Measured poll delay: the parallel spread plus the reply window. Under
  // loss the initiator cannot know when the last reply is in, so it keeps
  // the poll open for its full timeout.
  const sim::Channel& channel = sim.channel();
  result.estimate.delay =
      result.spread_delay + (channel.lossy()
                                 ? std::max(reply_max,
                                            channel.config().timeout)
                                 : reply_max);
  return result;
}

}  // namespace p2pse::est
