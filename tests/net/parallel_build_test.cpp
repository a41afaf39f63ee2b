// Sharded graph construction: thread-count-invariant by design
// (fixed shard counts, per-shard substreams, index-ordered merges). The
// suites verify the invariance directly — byte-equal overlays at every
// executor budget — plus the structural contracts (degree caps, handshake
// symmetry) and the GraphAssembler's checked-build bookkeeping.
#include "p2pse/net/parallel_build.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <vector>

#include "p2pse/support/check.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/support/sharding.hpp"

namespace p2pse::net {
namespace {

/// Structural equality: same alive set, same per-node neighbor sequences,
/// same edge count. (Graph has no operator==; this is the overlay's value.)
::testing::AssertionResult graphs_identical(const Graph& a, const Graph& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (a.edge_count() != b.edge_count()) {
    return ::testing::AssertionFailure()
           << "edges " << a.edge_count() << " vs " << b.edge_count();
  }
  const auto alive_a = a.alive_nodes();
  const auto alive_b = b.alive_nodes();
  if (!std::equal(alive_a.begin(), alive_a.end(), alive_b.begin(),
                  alive_b.end())) {
    return ::testing::AssertionFailure() << "alive lists differ";
  }
  for (const NodeId id : alive_a) {
    const auto na = a.neighbors(id);
    const auto nb = b.neighbors(id);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) {
      return ::testing::AssertionFailure()
             << "neighbors of node " << id << " differ";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ParallelBuild, ShardedBuildIsExecutorInvariant) {
  const HeterogeneousConfig config{3000, 1, 10};
  const support::RngStream rng(42);
  ShardedBuildStats base_stats;
  const Graph baseline =
      build_heterogeneous_sharded(config, rng, nullptr, &base_stats);
  for (const std::size_t workers : {2u, 8u}) {
    const support::ShardExecutor exec(workers);
    ShardedBuildStats stats;
    const Graph parallel =
        build_heterogeneous_sharded(config, rng, &exec, &stats);
    EXPECT_TRUE(graphs_identical(baseline, parallel))
        << "at " << workers << " workers";
    EXPECT_EQ(stats.proposals, base_stats.proposals);
    EXPECT_EQ(stats.self_loops, base_stats.self_loops);
    EXPECT_EQ(stats.rejected_duplicate, base_stats.rejected_duplicate);
    EXPECT_EQ(stats.rejected_capacity, base_stats.rejected_capacity);
    EXPECT_EQ(stats.rejected_peer, base_stats.rejected_peer);
    EXPECT_EQ(stats.edges, base_stats.edges);
  }
}

TEST(ParallelBuild, RespectsDegreeBoundsAndHandshakeSymmetry) {
  const HeterogeneousConfig config{2000, 2, 8};
  const support::RngStream rng(7);
  const support::ShardExecutor exec(4);
  const Graph graph = build_heterogeneous_sharded(config, rng, &exec);
  ASSERT_EQ(graph.size(), 2000u);
  std::size_t degree_sum = 0;
  for (const NodeId u : graph.alive_nodes()) {
    const auto neighbors = graph.neighbors(u);
    EXPECT_LE(neighbors.size(), config.max_degree);
    degree_sum += neighbors.size();
    std::set<NodeId> seen;
    for (const NodeId v : neighbors) {
      EXPECT_NE(v, u) << "self loop at " << u;
      EXPECT_TRUE(seen.insert(v).second) << "duplicate link " << u << "-" << v;
      const auto back = graph.neighbors(v);
      EXPECT_NE(std::find(back.begin(), back.end(), u), back.end())
          << "asymmetric link " << u << "->" << v;
    }
  }
  EXPECT_EQ(degree_sum, 2 * graph.edge_count());
  // The builder is best-effort on the minimum but must land near the target
  // band on a sparse overlay.
  EXPECT_GT(graph.average_degree(), 1.0);
}

TEST(ParallelBuild, StatsAccountForEveryProposal) {
  const HeterogeneousConfig config{1500, 1, 6};
  const support::RngStream rng(11);
  ShardedBuildStats stats;
  const Graph graph = build_heterogeneous_sharded(config, rng, nullptr, &stats);
  EXPECT_EQ(stats.edges, graph.edge_count());
  EXPECT_GE(stats.proposals, stats.edges);
  // Every lost proposal was rejected on at least one side.
  EXPECT_LE(stats.proposals - stats.edges,
            stats.rejected_capacity + stats.rejected_duplicate +
                stats.rejected_peer);
}

TEST(ParallelBuild, TrivialSizesProduceEdgelessGraphs) {
  const support::RngStream rng(1);
  const Graph empty = build_heterogeneous_sharded({0, 1, 10}, rng);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.edge_count(), 0u);
  const Graph single = build_heterogeneous_sharded({1, 1, 10}, rng);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.edge_count(), 0u);
  EXPECT_TRUE(single.is_alive(0));
}

TEST(ParallelBuild, RejectsInvalidConfigs) {
  const support::RngStream rng(2);
  EXPECT_THROW((void)build_heterogeneous_sharded({100, 0, 10}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)build_heterogeneous_sharded({100, 11, 10}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)build_heterogeneous_sharded({10, 1, 10}, rng),
               std::invalid_argument);
}

#if P2PSE_CHECK_ENABLED

TEST(CheckedBuildAssembler, RejectsOutOfOrderPlacement) {
  GraphAssembler assembler(3);
  assembler.place(0, 0);
  EXPECT_THROW(assembler.place(2, 0), support::CheckFailure);
}

TEST(CheckedBuildAssembler, FinishRejectsUnplacedNodes) {
  GraphAssembler assembler(2);
  assembler.place(0, 0);
  EXPECT_THROW((void)assembler.finish(0), support::CheckFailure);
}

TEST(CheckedBuildAssembler, FinishRejectsEdgeHandshakeMismatch) {
  GraphAssembler assembler(2);
  assembler.place(0, 1);
  assembler.place(1, 1);
  assembler.fill_slot(0, 0, 1);
  assembler.fill_slot(1, 0, 0);
  // degree sum is 2 (one edge); claiming zero edges breaks the handshake.
  EXPECT_THROW((void)assembler.finish(0), support::CheckFailure);
}

TEST(CheckedBuildAssembler, FinishRejectsSelfLoopSlots) {
  GraphAssembler assembler(2);
  assembler.place(0, 1);
  assembler.place(1, 1);
  assembler.fill_slot(0, 0, 0);  // self neighbor: invalid
  assembler.fill_slot(1, 0, 0);
  EXPECT_THROW((void)assembler.finish(1), support::CheckFailure);
}

TEST(CheckedBuildAssembler, AcceptsAConsistentAssembly) {
  GraphAssembler assembler(2);
  assembler.place(0, 1);
  assembler.place(1, 1);
  assembler.fill_slot(0, 0, 1);
  assembler.fill_slot(1, 0, 0);
  const Graph graph = assembler.finish(1);
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_EQ(graph.edge_count(), 1u);
  ASSERT_EQ(graph.neighbors(0).size(), 1u);
  EXPECT_EQ(graph.neighbors(0)[0], NodeId{1});
}

#endif  // P2PSE_CHECK_ENABLED

}  // namespace
}  // namespace p2pse::net
