#pragma once
// Whole-graph analysis: connectivity, BFS distances and degree statistics.
// Used for the paper's connectivity-loss explanation (§IV-D), the
// oracle-distance HopsSampling experiment (§V) and Fig 7.

#include <cstdint>
#include <vector>

#include "p2pse/net/graph.hpp"

namespace p2pse::net {

inline constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

struct ComponentInfo {
  /// Component index per slot id; kUnreached for dead slots.
  std::vector<std::uint32_t> component_of;
  /// Size of each component, index = component id.
  std::vector<std::size_t> sizes;
  /// Index into `sizes` of the largest component (0 if there are none).
  std::size_t largest = 0;

  [[nodiscard]] std::size_t count() const noexcept { return sizes.size(); }
  [[nodiscard]] std::size_t largest_size() const noexcept {
    return sizes.empty() ? 0 : sizes[largest];
  }
};

/// Connected components over alive nodes (iterative BFS).
[[nodiscard]] ComponentInfo connected_components(const Graph& graph);

/// BFS hop distance from `source` per slot id; kUnreached where unreachable
/// or dead. Returns an empty vector if `source` is dead.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& graph,
                                                       NodeId source);

struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
  /// counts[d] = alive nodes of degree d; its size is max + 1 (empty for an
  /// empty graph).
  std::vector<std::uint64_t> counts;
};

/// Degree distribution over alive nodes.
[[nodiscard]] DegreeStats degree_stats(const Graph& graph);

}  // namespace p2pse::net
