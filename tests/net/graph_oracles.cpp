#include "net/graph_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "p2pse/net/analysis.hpp"

namespace p2pse::net::oracle {

bool has_edge(const Graph& graph, NodeId a, NodeId b) {
  if (a == b || !graph.is_alive(b)) return false;
  const auto adjacency = graph.neighbors(a);
  return std::find(adjacency.begin(), adjacency.end(), b) != adjacency.end();
}

double largest_component_fraction(const Graph& graph) {
  if (graph.empty()) return 1.0;
  const ComponentInfo info = connected_components(graph);
  return static_cast<double>(info.largest_size()) /
         static_cast<double>(graph.size());
}

Graph build_erdos_renyi(const ErdosRenyiConfig& config,
                        support::RngStream& rng) {
  Graph graph(config.nodes);
  if (config.nodes < 2 || config.average_degree <= 0.0) return graph;
  const double p = std::min(
      1.0, config.average_degree / static_cast<double>(config.nodes - 1));
  if (p >= 1.0) {
    for (NodeId a = 0; a < config.nodes; ++a) {
      for (NodeId b = a + 1; b < config.nodes; ++b) graph.add_edge(a, b);
    }
    return graph;
  }
  // Geometric skipping over the upper-triangular pair enumeration.
  const double log_q = std::log(1.0 - p);
  std::uint64_t index = 0;  // linear index over ordered pairs (a < b)
  const std::uint64_t n = config.nodes;
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  for (;;) {
    const double gap = std::floor(std::log(rng.uniform_real_open0()) / log_q);
    if (gap >= static_cast<double>(total_pairs - index)) break;
    index += static_cast<std::uint64_t>(gap);
    // Decode pair index -> (a, b) with a < b.
    // Row a holds (n-1-a) pairs; solve by the quadratic formula.
    const double nd = static_cast<double>(n);
    const double idx = static_cast<double>(index);
    double a_guess = std::floor(
        nd - 0.5 - std::sqrt((nd - 0.5) * (nd - 0.5) - 2.0 * idx));
    auto a = static_cast<std::uint64_t>(std::max(0.0, a_guess));
    auto row_start = [n](std::uint64_t row) {
      return row * (2 * n - row - 1) / 2;
    };
    while (a > 0 && row_start(a) > index) --a;
    while (row_start(a + 1) <= index) ++a;
    const std::uint64_t b = a + 1 + (index - row_start(a));
    graph.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b));
    ++index;
    if (index >= total_pairs) break;
  }
  return graph;
}

}  // namespace p2pse::net::oracle
