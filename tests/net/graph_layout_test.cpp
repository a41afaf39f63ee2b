// Exact-layout lock for net::Graph's adjacency arena. The §IV-A overlay at
// 1e5 nodes, built on replica 0's graph substream at seed 42, and a churned
// copy of it pin the arena's size, its free slots, the chunk recycling
// count, the edge count and a digest of every node's neighbour list in
// order. random_neighbor draws by position, so any change to adjacency
// order or to the chunk policy moves a row here, while a change to how a
// node's record is stored must leave both rows as they are. A failure
// prints the actual row.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "p2pse/net/builders.hpp"

namespace p2pse::net {
namespace {

constexpr std::size_t kNodes = 100000;

/// "arena_size arena_free chunk_recycles edges digest": the digest is
/// FNV-1a over each slot's degree followed by its neighbours in order.
/// Also checks that every dead slot reads as degree 0 with no neighbours.
std::string layout_row(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (NodeId id = 0; id < g.slot_count(); ++id) {
    if (!g.is_alive(id)) {
      EXPECT_EQ(g.degree(id), 0u) << "dead slot " << id;
      EXPECT_TRUE(g.neighbors(id).empty()) << "dead slot " << id;
    }
    mix(g.degree(id));
    for (const NodeId nb : g.neighbors(id)) mix(nb);
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu %zu %llu %zu %016llx", g.arena_size(),
                g.arena_free(),
                static_cast<unsigned long long>(g.counters().chunk_recycles),
                g.edge_count(), static_cast<unsigned long long>(h));
  return buf;
}

const Graph& built() {
  static const Graph graph = [] {
    support::RngStream rng =
        support::RngStream(42).split("replica", 0).split("graph");
    return build_heterogeneous_random({kNodes, 1, 10}, rng);
  }();
  return graph;
}

/// A fixed churn sequence over a copy of the built overlay: each step
/// removes one random alive node, adds a fresh one and wires it to peers
/// below the §IV-A degree cap, and every eighth step adds one edge between
/// two random alive nodes.
Graph churned() {
  Graph g = built();
  support::RngStream rng(7);
  for (int step = 0; step < 20000; ++step) {
    g.remove_node(g.random_alive(rng));
    const NodeId fresh = g.add_node();
    const auto target = static_cast<std::size_t>(rng.uniform_int(1, 10));
    for (int attempt = 0; attempt < 40 && g.degree(fresh) < target;
         ++attempt) {
      const NodeId peer = g.random_alive(rng);
      if (g.degree(peer) >= 10) continue;
      (void)g.add_edge(fresh, peer);
    }
    if (step % 8 == 0) {
      const NodeId a = g.random_alive(rng);
      const NodeId b = g.random_alive(rng);
      (void)g.add_edge(a, b);
    }
  }
  return g;
}

TEST(GraphLayout, HeterogeneousBuildAtSeed42) {
  EXPECT_EQ(layout_row(built()),
            "1261752 149976 20225 359991 cbd7a65564ddb867");
}

TEST(GraphLayout, ChurnedCopyOfTheBuild) {
  const Graph g = churned();
  EXPECT_EQ(g.size(), kNodes);
  EXPECT_EQ(g.slot_count(), kNodes + 20000);
  EXPECT_EQ(layout_row(g), "1346120 192184 48662 334222 18499d837116181e");
}

}  // namespace
}  // namespace p2pse::net
