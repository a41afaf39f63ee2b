#pragma once
// The random-walk engine every walk estimator and sampler runs on: one hop
// primitive, one hop loop (`walk`, which `walk_to_sample` ends with the
// sample's reply) and one collision loop (`collide`). The stop rule and the
// sampler are template parameters, so a walk compiles to straight-line code
// with no indirect call per hop. Every hop is one kWalkStep message sent
// through the simulator's channel.

#include <cstdint>
#include <unordered_set>

#include "p2pse/est/estimate.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/check.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

/// How a walk's hops are delivered (see sim::Channel). Sample&Collide uses
/// bounded ARQ: a lost hop drops the walk and its timer. Walks whose state
/// must survive (Random Tour's accumulator) or that have none to lose use
/// hop-reliable delivery.
enum class HopDelivery : std::uint8_t { kArq, kReliable };

/// One hop: `next` is kInvalidNode, and nothing was sent, when the node
/// walked from has no neighbours.
struct Hop {
  net::NodeId next = net::kInvalidNode;
  sim::Channel::Delivery delivery{};
};

/// Draws a uniform neighbour of `from` and sends the walk message to it.
template <HopDelivery kDelivery>
[[nodiscard]] inline Hop hop(sim::Simulator& sim, net::NodeId from,
                             support::RngStream& rng) {
  const net::NodeId next = sim.graph().random_neighbor(from, rng);
  if (next == net::kInvalidNode) return {};
  if constexpr (kDelivery == HopDelivery::kArq) {
    return {next, sim.send_arq(sim::MessageClass::kWalkStep, from, next)};
  } else {
    return {next,
            sim.send_reliable(sim::MessageClass::kWalkStep, from, next)};
  }
}

/// Result of one walk.
struct WalkSample {
  /// Where the walk ended; kInvalidNode when a hop was lost.
  net::NodeId node = net::kInvalidNode;
  std::uint64_t steps = 0;  ///< logical hops taken (ARQ may retransmit each)
  /// Walk or reply lost in transit (per-hop ARQ exhausted): the initiator
  /// never learns the sample and times out. Always false on a loss-free
  /// channel.
  bool lost = false;
  /// Wall-clock of the transit under the simulator's channel: hop latencies
  /// plus retransmission waits (0 on the ideal channel).
  double elapsed = 0.0;
};

/// The fixed-length stop rule: never stop before the hop bound.
inline constexpr auto kFixedLength = [](net::NodeId) { return false; };

/// Walks from `start`, at most `max_hops` hops, until `stop(node)` — asked
/// at each node a hop reaches — returns true. A node without neighbours
/// keeps the walk where it is. A lost hop ends the walk with no node.
template <HopDelivery kDelivery, class Stop>
[[nodiscard]] inline WalkSample walk(sim::Simulator& sim, net::NodeId start,
                                     std::uint64_t max_hops,
                                     support::RngStream& rng, Stop&& stop) {
  WalkSample out;
  net::NodeId current = start;
  for (std::uint64_t step = 0; step < max_hops; ++step) {
    const Hop next = hop<kDelivery>(sim, current, rng);
    if (next.next == net::kInvalidNode) break;  // stuck: nowhere to walk
    out.elapsed += next.delivery.latency;
    if (!next.delivery.delivered) {
      out.lost = true;  // per-hop ARQ exhausted: the walk is gone
      return out;
    }
    ++out.steps;
    current = next.next;
    if (stop(current)) break;
  }
  out.node = current;
  return out;
}

/// One sample: a walk from `initiator` whose end node reports back with
/// one bounded-ARQ kSampleReply. A walk that never left the initiator (an
/// isolated node) sampled it locally: no reply crosses the network.
template <HopDelivery kDelivery, class Stop>
[[nodiscard]] inline WalkSample walk_to_sample(sim::Simulator& sim,
                                               net::NodeId initiator,
                                               std::uint64_t max_hops,
                                               support::RngStream& rng,
                                               Stop&& stop) {
  WalkSample out = walk<kDelivery>(sim, initiator, max_hops, rng, stop);
  if (out.lost || out.steps == 0) return out;
  sim.record_walk_hops(out.steps);
  const sim::Channel::Delivery reply =
      sim.send_arq(sim::MessageClass::kSampleReply, out.node, initiator);
  out.elapsed += reply.latency;
  if (!reply.delivered) out.lost = true;
  return out;
}

/// What one collision loop saw.
struct CollisionRun {
  std::uint64_t samples = 0;     ///< C: delivered samples, repeats included
  std::uint64_t attempts = 0;    ///< samples launched, lost ones included
  std::uint64_t distinct = 0;    ///< distinct ids among the samples
  std::uint32_t collisions = 0;  ///< samples that repeated a seen id
  bool complete = false;         ///< reached the target before the bound
  double delay = 0.0;            ///< the initiator's wall-clock
  std::uint64_t messages = 0;    ///< sent during the loop

  /// The run's cost as an estimate at `now`, with no value yet; invalid
  /// when the attempt bound stopped the loop first.
  [[nodiscard]] Estimate estimate(sim::Time now) const noexcept {
    Estimate out;
    out.time = now;
    out.messages = messages;
    out.delay = delay;
    out.valid = complete;
    return out;
  }
};

/// The birthday-paradox estimate N-hat = C^2 / (2 l).
[[nodiscard]] inline double birthday_estimate(std::uint64_t samples,
                                              std::uint32_t collisions) {
  return static_cast<double>(samples) * static_cast<double>(samples) /
         (2.0 * static_cast<double>(collisions));
}

/// Calls `sample()` (returning a WalkSample) until `target` samples repeat
/// an id already seen, or `max_attempts` samples were launched.
template <class Sampler>
[[nodiscard]] CollisionRun collide(sim::Simulator& sim, std::uint32_t target,
                                   std::uint64_t max_attempts,
                                   Sampler&& sample) {
  const std::uint64_t baseline = sim.meter().total();
  std::unordered_set<net::NodeId> seen;
  seen.reserve(1024);
  CollisionRun run;
  while (run.collisions < target && run.attempts < max_attempts) {
    const WalkSample s = sample();
    ++run.attempts;
    if (s.lost) {
      // Initiator timeout on a lost walk or reply: wait, then relaunch.
      // The messages already on the wire stay counted; the sample does not
      // exist, so it enters neither the collision set nor C. The charge is
      // the INITIATOR's clock, not the network's: remote per-hop ARQ waits
      // (s.elapsed) happen out of its sight and off its critical path — it
      // relaunches the moment its own timer fires.
      run.delay += sim.channel().config().timeout;
      continue;
    }
    run.delay += s.elapsed;
    ++run.samples;
    if (!seen.insert(s.node).second) ++run.collisions;
  }
  // Every delivered sample is either a new id or a collision, and lost
  // attempts enter neither count.
  P2PSE_CHECK(run.samples == seen.size() + run.collisions);
  P2PSE_CHECK(run.samples <= run.attempts);
  run.distinct = seen.size();
  run.complete = run.collisions >= target;
  run.messages = sim.meter().since(baseline);
  return run;
}

/// Runs `steps` simple-walk hops from `start` and returns the endpoint: a
/// sample biased toward high degree, the walk's stationary law.
[[nodiscard]] inline net::NodeId simple_walk(sim::Simulator& sim,
                                             net::NodeId start,
                                             std::uint64_t steps,
                                             support::RngStream& rng) {
  return walk<HopDelivery::kReliable>(sim, start, steps, rng, kFixedLength)
      .node;
}

/// One step of the Metropolis–Hastings walk targeting the uniform
/// distribution: propose a uniform neighbour v, accept with probability
/// min(1, deg(from)/deg(v)), stay otherwise. A rejected proposal still costs
/// the probe message (the proposal has to learn deg(v)). Returns
/// kInvalidNode, and sends nothing, when `from` has no neighbours.
[[nodiscard]] inline net::NodeId metropolis_hastings_step(
    sim::Simulator& sim, net::NodeId from, support::RngStream& rng) {
  const net::NodeId proposal = hop<HopDelivery::kReliable>(sim, from, rng).next;
  if (proposal == net::kInvalidNode) return net::kInvalidNode;
  const net::Graph& graph = sim.graph();
  return rng.bernoulli(static_cast<double>(graph.degree(from)) /
                       static_cast<double>(graph.degree(proposal)))
             ? proposal
             : from;
}

/// Runs `steps` Metropolis–Hastings steps from `start` and returns the
/// endpoint (asymptotically uniform sample).
[[nodiscard]] inline net::NodeId metropolis_hastings_walk(
    sim::Simulator& sim, net::NodeId start, std::uint64_t steps,
    support::RngStream& rng) {
  net::NodeId current = start;
  for (std::uint64_t i = 0; i < steps; ++i) {
    const net::NodeId next = metropolis_hastings_step(sim, current, rng);
    if (next == net::kInvalidNode) break;
    current = next;
  }
  return current;
}

}  // namespace p2pse::est
