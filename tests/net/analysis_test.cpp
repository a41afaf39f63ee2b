#include "p2pse/net/analysis.hpp"

#include <gtest/gtest.h>

#include "p2pse/net/builders.hpp"

#include "net/graph_oracles.hpp"

namespace p2pse::net {
namespace {

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph star_graph(std::size_t leaves) {
  Graph g(leaves + 1);
  for (NodeId i = 1; i <= leaves; ++i) g.add_edge(0, i);
  return g;
}

TEST(ConnectedComponents, EmptyGraph) {
  Graph g;
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.count(), 0u);
  EXPECT_EQ(info.largest_size(), 0u);
}

TEST(ConnectedComponents, SingleComponent) {
  const Graph g = path_graph(10);
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.count(), 1u);
  EXPECT_EQ(info.largest_size(), 10u);
  for (NodeId id = 0; id < 10; ++id) EXPECT_EQ(info.component_of[id], 0u);
}

TEST(ConnectedComponents, SplitsOnRemoval) {
  Graph g = path_graph(11);
  g.remove_node(5);  // splits into 0..4 and 6..10
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.count(), 2u);
  EXPECT_EQ(info.largest_size(), 5u);
  EXPECT_EQ(info.component_of[5], kUnreached);
  EXPECT_NE(info.component_of[0], info.component_of[10]);
}

TEST(ConnectedComponents, IsolatedNodesAreSingletons) {
  Graph g(3);
  g.add_edge(0, 1);
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.count(), 2u);
  EXPECT_EQ(info.largest_size(), 2u);
}

TEST(LargestComponentFraction, Basics) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(oracle::largest_component_fraction(g), 0.75);
  Graph empty;
  EXPECT_DOUBLE_EQ(oracle::largest_component_fraction(empty), 1.0);
}

TEST(BfsDistances, PathGraph) {
  const Graph g = path_graph(6);
  const auto dist = bfs_distances(g, 0);
  for (NodeId id = 0; id < 6; ++id) EXPECT_EQ(dist[id], id);
}

TEST(BfsDistances, StarGraph) {
  const Graph g = star_graph(10);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  for (NodeId id = 1; id <= 10; ++id) EXPECT_EQ(dist[id], 1u);
  const auto from_leaf = bfs_distances(g, 3);
  EXPECT_EQ(from_leaf[0], 1u);
  EXPECT_EQ(from_leaf[7], 2u);
}

TEST(BfsDistances, UnreachableMarked) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], kUnreached);
  EXPECT_EQ(dist[3], kUnreached);
}

TEST(BfsDistances, DeadSourceReturnsEmpty) {
  Graph g(3);
  g.remove_node(1);
  EXPECT_TRUE(bfs_distances(g, 1).empty());
  EXPECT_TRUE(bfs_distances(g, 42).empty());
}

TEST(DegreeStats, StarGraph) {
  const Graph g = star_graph(9);
  const DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 9u);
  EXPECT_NEAR(stats.mean, 1.8, 1e-9);
  // One count per degree up to the maximum, zero where no node sits.
  const std::vector<std::uint64_t> counts{0, 9, 0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(stats.counts, counts);
}

TEST(DegreeStats, EmptyGraph) {
  Graph g;
  const DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_EQ(stats.mean, 0.0);
}

TEST(DegreeStats, EmptyGraphHasNoCounts) {
  // No alive node, no count: neither an empty graph nor one whose every
  // slot is dead opens a degree-0 entry.
  Graph none;
  EXPECT_TRUE(degree_stats(none).counts.empty());
  Graph all_dead(3);
  all_dead.add_edge(0, 1);
  for (NodeId id = 0; id < 3; ++id) all_dead.remove_node(id);
  const DegreeStats stats = degree_stats(all_dead);
  EXPECT_TRUE(stats.counts.empty());
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_EQ(stats.mean, 0.0);
}

TEST(DegreeStats, CountsPerDegreeWithGaps) {
  // A 4-clique (four nodes of degree 3) beside a 7-leaf star: several
  // nodes share a degree, and the degrees between them count zero.
  Graph g(12);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) g.add_edge(a, b);
  }
  for (NodeId leaf = 5; leaf < 12; ++leaf) g.add_edge(4, leaf);
  const DegreeStats stats = degree_stats(g);
  const std::vector<std::uint64_t> counts{0, 7, 0, 4, 0, 0, 0, 1};
  EXPECT_EQ(stats.counts, counts);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 7u);
  EXPECT_NEAR(stats.mean, (1.0 * 7 + 3.0 * 4 + 7.0 * 1) / 12.0, 1e-12);
}

TEST(DegreeStats, CountsIsolatedNodesAtDegreeZero) {
  Graph g(4);
  g.add_edge(0, 1);
  g.remove_node(3);  // dead slots are not counted
  const DegreeStats stats = degree_stats(g);
  const std::vector<std::uint64_t> counts{1, 2};
  EXPECT_EQ(stats.counts, counts);
  EXPECT_EQ(stats.min, 0u);
}

TEST(BfsDistances, MatchesManualOnGrid) {
  // 3x3 grid, source at the corner.
  Graph g(9);
  const auto at = [](int r, int c) { return static_cast<NodeId>(r * 3 + c); };
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c + 1 < 3) g.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < 3) g.add_edge(at(r, c), at(r + 1, c));
    }
  }
  const auto dist = bfs_distances(g, at(0, 0));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(dist[at(r, c)], static_cast<std::uint32_t>(r + c));
    }
  }
}

}  // namespace
}  // namespace p2pse::net
