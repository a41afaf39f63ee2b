#include "p2pse/net/analysis.hpp"

#include <algorithm>
#include <deque>

namespace p2pse::net {

ComponentInfo connected_components(const Graph& graph) {
  ComponentInfo info;
  info.component_of.assign(graph.slot_count(), kUnreached);
  std::vector<NodeId> stack;
  for (const NodeId start : graph.alive_nodes()) {
    if (info.component_of[start] != kUnreached) continue;
    const auto component = static_cast<std::uint32_t>(info.sizes.size());
    std::size_t size = 0;
    stack.push_back(start);
    info.component_of[start] = component;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      ++size;
      for (const NodeId v : graph.neighbors(u)) {
        if (info.component_of[v] == kUnreached) {
          info.component_of[v] = component;
          stack.push_back(v);
        }
      }
    }
    info.sizes.push_back(size);
  }
  if (!info.sizes.empty()) {
    info.largest = static_cast<std::size_t>(
        std::max_element(info.sizes.begin(), info.sizes.end()) -
        info.sizes.begin());
  }
  return info;
}

std::vector<std::uint32_t> bfs_distances(const Graph& graph, NodeId source) {
  if (!graph.is_alive(source)) return {};
  std::vector<std::uint32_t> dist(graph.slot_count(), kUnreached);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const std::uint32_t next = dist[u] + 1;
    for (const NodeId v : graph.neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = next;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

DegreeStats degree_stats(const Graph& graph) {
  DegreeStats stats;
  if (graph.empty()) return stats;
  stats.min = std::numeric_limits<std::size_t>::max();
  double total = 0.0;
  for (const NodeId id : graph.alive_nodes()) {
    const std::size_t d = graph.degree(id);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    total += static_cast<double>(d);
    if (d >= stats.counts.size()) stats.counts.resize(d + 1, 0);
    ++stats.counts[d];
  }
  stats.mean = total / static_cast<double>(graph.size());
  return stats;
}

}  // namespace p2pse::net
