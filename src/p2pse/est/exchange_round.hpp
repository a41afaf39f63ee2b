#pragma once
// The synchronous exchange round shared by Aggregation and MultiAggregation:
// every alive node initiates one exchange with a uniformly random neighbor
// (push + pull = 2 messages, or the push alone in the push-only variant).
//
// A dropped push means the peer never replies (no pull message at all); a
// dropped pull means the initiator cannot confirm, so the peer's tentative
// update is rolled back. Either way the exchange is masked out of the round
// and mass is conserved.
//
// The peers of a block of alive nodes are drawn before any exchange of the
// block runs. A draw depends only on the graph, which no exchange changes,
// so the RNG order is that of a plain draw-then-exchange loop, and the
// peers' state can be prefetched meanwhile.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <span>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/check.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est::detail {

/// Alive nodes whose peers are drawn (and prefetched) ahead of their
/// exchanges.
inline constexpr std::size_t kExchangeBlock = 64;

/// Runs one round. `prefetch(peer)` hints the caller's state of a drawn
/// peer; `commit(id, peer)` applies a delivered exchange. Returns the
/// round's wall-clock: the slowest delivered exchange, or the ack timeout
/// when a masked exchange had to be detected (as in the poll protocols'
/// reply windows).
template <typename Prefetch, typename Commit>
double run_exchange_round(sim::Simulator& sim, support::RngStream& rng,
                          bool push_pull, Prefetch&& prefetch,
                          Commit&& commit) {
  const net::Graph& graph = sim.graph();
  const auto alive = graph.alive_nodes();
  std::array<net::NodeId, kExchangeBlock> peers;
  double round_max = 0.0;
  bool masked = false;
  for (std::size_t begin = 0; begin < alive.size(); begin += kExchangeBlock) {
    const std::size_t count = std::min(kExchangeBlock, alive.size() - begin);
    for (std::size_t i = 0; i < count; ++i) {
      peers[i] = graph.random_neighbor(alive[begin + i], rng);
      if (peers[i] != net::kInvalidNode) prefetch(peers[i]);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const net::NodeId id = alive[begin + i];
      const net::NodeId peer = peers[i];
      if (peer == net::kInvalidNode) continue;  // isolated node
      const sim::Channel::Delivery push =
          sim.send(sim::MessageClass::kAggregationPush, id, peer);
      if (!push.delivered) {
        masked = true;
        continue;
      }
      double latency = push.latency;
      if (push_pull) {
        const sim::Channel::Delivery pull =
            sim.send(sim::MessageClass::kAggregationPull, peer, id);
        if (!pull.delivered) {
          masked = true;
          continue;
        }
        latency += pull.latency;
      }
      round_max = std::max(round_max, latency);
      commit(id, peer);
    }
  }
  if (masked) {
    round_max = std::max(round_max, sim.channel().config().timeout);
  }
  return round_max;
}

/// Sum of `values` (indexed by slot, sized to slot_count()) over the
/// alive nodes.
inline double alive_mass(const net::Graph& graph,
                         std::span<const double> values) {
  double total = 0.0;
  for (const net::NodeId id : graph.alive_nodes()) total += values[id];
  return total;
}

/// Checked builds: a round moves mass between alive nodes but never
/// creates or destroys it, masked exchanges included.
inline void check_mass_conserved([[maybe_unused]] double before,
                                 [[maybe_unused]] double after) {
  P2PSE_CHECK_MSG(std::abs(after - before) <=
                      1e-9 * std::max(std::abs(before), std::abs(after)),
                  "gossip round changed the alive mass");
}

}  // namespace p2pse::est::detail
