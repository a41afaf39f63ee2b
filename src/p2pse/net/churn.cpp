#include "p2pse/net/churn.hpp"

#include <algorithm>

namespace p2pse::net {

NodeId join_node(Graph& graph, const JoinPolicy& policy,
                 support::RngStream& rng) {
  const NodeId id = graph.add_node();
  if (graph.size() < 2) return id;
  const auto lo = static_cast<std::int64_t>(std::max<std::size_t>(1, policy.min_degree));
  const auto hi = static_cast<std::int64_t>(std::max<std::size_t>(policy.min_degree,
                                                                  policy.max_degree));
  const auto target = static_cast<std::size_t>(rng.uniform_int(lo, hi));
  std::size_t attempts = 0;
  const std::size_t attempt_budget = 64 * policy.max_degree + 64;
  while (graph.degree(id) < target && attempts < attempt_budget) {
    ++attempts;
    const NodeId peer = graph.random_alive(rng);
    {
      // Speculative lookahead: a COPY of the stream yields exactly the
      // values the next attempts will draw (the real stream is untouched,
      // so draw order — and figure bytes — are unchanged). Prefetching the
      // next three candidates' lines overlaps their degree-probe misses
      // with this attempt's work instead of serializing them; depth 3
      // measured best on BM_ChurnStep (see README "Performance").
      support::RngStream peek = rng;
      graph.prefetch_node(graph.random_alive(peek));
      graph.prefetch_node(graph.random_alive(peek));
      graph.prefetch_node(graph.random_alive(peek));
    }
    if (peer == id || peer == kInvalidNode) continue;
    if (graph.degree(peer) >= policy.max_degree) continue;
    graph.add_edge(id, peer);
  }
  return id;
}

void add_nodes(Graph& graph, std::size_t count, const JoinPolicy& policy,
               support::RngStream& rng) {
  for (std::size_t i = 0; i < count; ++i) join_node(graph, policy, rng);
}

void remove_random_nodes(Graph& graph, std::size_t count,
                         support::RngStream& rng) {
  count = std::min(count, graph.size());
  for (std::size_t i = 0; i < count; ++i) {
    graph.remove_node(graph.random_alive(rng));
  }
}

std::size_t remove_fraction(Graph& graph, double fraction,
                            support::RngStream& rng) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto count =
      static_cast<std::size_t>(fraction * static_cast<double>(graph.size()));
  remove_random_nodes(graph, count, rng);
  return count;
}

void ConstantChurn::step(Graph& graph, double dt, support::RngStream& rng) {
  if (dt <= 0.0) return;
  arrival_credit_ += arrival_rate_ * dt;
  departure_credit_ += departure_rate_ * dt;
  auto arrivals = static_cast<std::size_t>(arrival_credit_);
  auto departures = static_cast<std::size_t>(departure_credit_);
  arrival_credit_ -= static_cast<double>(arrivals);
  departure_credit_ -= static_cast<double>(departures);
  // Interleave so huge steps don't empty the overlay before refilling it.
  while (arrivals > 0 || departures > 0) {
    if (arrivals > 0) {
      join_node(graph, policy_, rng);
      --arrivals;
    }
    if (departures > 0 && !graph.empty()) {
      graph.remove_node(graph.random_alive(rng));
      --departures;
    } else {
      departures = 0;
    }
  }
}

}  // namespace p2pse::net
