#include "p2pse/net/graph.hpp"

#include "net/graph_oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace p2pse::net {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.slot_count(), 0u);
}

TEST(Graph, PreSizedConstructor) {
  Graph g(5);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.slot_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId id = 0; id < 5; ++id) EXPECT_TRUE(g.is_alive(id));
}

TEST(Graph, AddNodeAssignsSequentialIds) {
  Graph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.add_node(), 2u);
  EXPECT_EQ(g.size(), 3u);
}

TEST(Graph, AddEdgeIsBidirectional) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(oracle::has_edge(g, 0, 1));
  EXPECT_TRUE(oracle::has_edge(g, 1, 0));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_FALSE(g.add_edge(0, 0));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, RejectsDuplicateEdge) {
  Graph g(2);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, RejectsEdgesToDeadOrInvalidNodes) {
  Graph g(3);
  g.remove_node(2);
#if P2PSE_CHECK_ENABLED
  // Checked builds promote dead-endpoint wiring from a tolerant false to a
  // contract violation (callers must test is_alive first).
  EXPECT_THROW((void)g.add_edge(0, 2), support::CheckFailure);
  EXPECT_THROW((void)g.add_edge(0, 99), support::CheckFailure);
#else
  EXPECT_FALSE(g.add_edge(0, 2));
  EXPECT_FALSE(g.add_edge(0, 99));
#endif
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(oracle::has_edge(g, 0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
}

TEST(Graph, RemoveNodeDetachesAllNeighbors) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  g.remove_node(0);
  EXPECT_FALSE(g.is_alive(0));
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(1), 1u);  // only the 1-2 link survives
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.degree(3), 0u);  // no healing
  for (const NodeId nb : g.neighbors(1)) EXPECT_NE(nb, 0u);
}

TEST(Graph, RemoveNodeIsIdempotent) {
  Graph g(2);
  g.add_edge(0, 1);
  g.remove_node(0);
  g.remove_node(0);   // no-op
  g.remove_node(99);  // no-op
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, IdsAreNotReusedAfterRemoval) {
  Graph g(3);
  g.remove_node(1);
  const NodeId fresh = g.add_node();
  EXPECT_EQ(fresh, 3u);
  EXPECT_FALSE(g.is_alive(1));
}

TEST(Graph, AliveNodesTracksMembership) {
  Graph g(4);
  g.remove_node(1);
  g.remove_node(3);
  const auto alive = g.alive_nodes();
  const std::set<NodeId> set(alive.begin(), alive.end());
  EXPECT_EQ(set, (std::set<NodeId>{0, 2}));
}

TEST(Graph, AliveListSwapRemoveKeepsConsistency) {
  Graph g(100);
  // Remove in a pattern that exercises the swap-with-back bookkeeping.
  for (NodeId id = 0; id < 100; id += 2) g.remove_node(id);
  EXPECT_EQ(g.size(), 50u);
  for (const NodeId id : g.alive_nodes()) {
    EXPECT_TRUE(g.is_alive(id));
    EXPECT_EQ(id % 2, 1u);
  }
}

TEST(Graph, NeighborsOfDeadNodeIsEmpty) {
  Graph g(2);
  g.add_edge(0, 1);
  g.remove_node(0);
  EXPECT_TRUE(g.neighbors(0).empty());
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(42).empty());
}

TEST(Graph, RandomAliveReturnsLivingNode) {
  Graph g(50);
  support::RngStream rng(1);
  for (NodeId id = 0; id < 25; ++id) g.remove_node(id);
  for (int i = 0; i < 500; ++i) {
    const NodeId pick = g.random_alive(rng);
    EXPECT_TRUE(g.is_alive(pick));
  }
}

TEST(Graph, RandomAliveOnEmptyGraph) {
  Graph g;
  support::RngStream rng(1);
  EXPECT_EQ(g.random_alive(rng), kInvalidNode);
}

TEST(Graph, RandomNeighborUniformOverAdjacency) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  support::RngStream rng(3);
  std::array<int, 4> counts{};
  for (int i = 0; i < 3000; ++i) ++counts[g.random_neighbor(0, rng)];
  EXPECT_EQ(counts[0], 0);
  for (int n = 1; n <= 3; ++n) EXPECT_NEAR(counts[n], 1000, 150);
}

TEST(Graph, RandomNeighborOfIsolatedNode) {
  Graph g(1);
  support::RngStream rng(3);
  EXPECT_EQ(g.random_neighbor(0, rng), kInvalidNode);
  EXPECT_EQ(g.random_neighbor(99, rng), kInvalidNode);
}

TEST(Graph, AverageDegree) {
  Graph g(4);
  EXPECT_EQ(g.average_degree(), 0.0);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.0);
  Graph empty;
  EXPECT_EQ(empty.average_degree(), 0.0);
}

TEST(Graph, DegreeSymmetryInvariantUnderChurn) {
  Graph g(200);
  support::RngStream rng(17);
  // Random wiring.
  for (int i = 0; i < 600; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_u64(200));
    const auto b = static_cast<NodeId>(rng.uniform_u64(200));
    g.add_edge(a, b);
  }
  // Random removals.
  for (int i = 0; i < 80; ++i) g.remove_node(g.random_alive(rng));
  // Invariants: adjacency symmetric, no dead neighbors, edge_count matches.
  std::size_t degree_sum = 0;
  for (const NodeId u : g.alive_nodes()) {
    degree_sum += g.degree(u);
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_TRUE(g.is_alive(v));
      EXPECT_TRUE(oracle::has_edge(g, v, u));
      EXPECT_NE(v, u);
    }
  }
  EXPECT_EQ(degree_sum, 2 * g.edge_count());
}

TEST(Graph, NoDuplicateNeighborsEver) {
  Graph g(50);
  support::RngStream rng(23);
  for (int i = 0; i < 500; ++i) {
    g.add_edge(static_cast<NodeId>(rng.uniform_u64(50)),
               static_cast<NodeId>(rng.uniform_u64(50)));
  }
  for (const NodeId u : g.alive_nodes()) {
    const auto nbs = g.neighbors(u);
    std::set<NodeId> unique(nbs.begin(), nbs.end());
    EXPECT_EQ(unique.size(), nbs.size());
  }
}

TEST(Graph, ArenaReachesSteadyStateUnderChurnRejoin) {
  // Leave/rejoin churn at bounded degree must recycle adjacency chunks
  // through the free lists instead of leaking arena space: after a warmup
  // that populates the per-size free lists, the arena stops growing. The
  // run is fully deterministic at a fixed seed.
  Graph g;
  support::RngStream rng(7);
  std::vector<NodeId> members;
  members.reserve(64);
  for (int i = 0; i < 64; ++i) members.push_back(g.add_node());
  const auto wire = [&](NodeId id) {
    for (int k = 0; k < 6; ++k) {
      const NodeId peer = g.random_alive(rng);
      if (peer == id || g.degree(peer) >= 10) continue;
      (void)g.add_edge(id, peer);
    }
  };
  for (const NodeId id : members) wire(id);
  const auto churn_cycle = [&] {
    const auto victim =
        static_cast<std::size_t>(rng.uniform_u64(members.size()));
    g.remove_node(members[victim]);
    members[victim] = g.add_node();
    wire(members[victim]);
  };
  for (int i = 0; i < 2000; ++i) churn_cycle();
  const std::size_t warm_arena = g.arena_size();
  for (int i = 0; i < 4000; ++i) churn_cycle();
  // 4000 rejoins allocate ~2 chunks each; without recycling the arena would
  // grow by ~100k slots. Allow one stray chunk per size class for the slow
  // drift of the per-class high-water mark.
  EXPECT_LE(g.arena_size(), warm_arena + 64);
  EXPECT_LE(g.arena_free(), g.arena_size());
  // Removing every node returns every chunk to the free lists.
  while (!g.empty()) g.remove_node(g.alive_nodes().front());
  EXPECT_EQ(g.arena_free(), g.arena_size());
  EXPECT_EQ(g.edge_count(), 0u);
}

}  // namespace
}  // namespace p2pse::net
