#pragma once
// Graph oracles and fixtures the tests check the library against: edge
// membership and connectivity read through the public adjacency, and the
// Erdős–Rényi G(n,p) builder some property tests draw their overlays from.
// No figure runs any of these, so they live with the tests.

#include <cstddef>

#include "p2pse/net/graph.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::net::oracle {

/// True when the undirected edge {a,b} exists between two alive nodes.
[[nodiscard]] bool has_edge(const Graph& graph, NodeId a, NodeId b);

/// Fraction of alive nodes inside the largest component (1.0 when empty —
/// an empty overlay is vacuously connected).
[[nodiscard]] double largest_component_fraction(const Graph& graph);

/// Erdős–Rényi G(n,p) with p chosen to hit `average_degree`. Uses geometric
/// edge skipping, O(n + |E|).
struct ErdosRenyiConfig {
  std::size_t nodes = 0;
  double average_degree = 7.2;
};

[[nodiscard]] Graph build_erdos_renyi(const ErdosRenyiConfig& config,
                                      support::RngStream& rng);

}  // namespace p2pse::net::oracle
