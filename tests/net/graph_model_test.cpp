// Model-based randomized testing: drive Graph with long random operation
// sequences and compare every observable against a trivially-correct
// reference model (sets of alive ids + set of undirected edges). Catches
// bookkeeping bugs (alive-list swaps, adjacency cleanup, edge counting)
// that example-based tests can miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "p2pse/net/graph.hpp"

#include "net/graph_oracles.hpp"

namespace p2pse::net {
namespace {

class ReferenceModel {
 public:
  NodeId add_node() {
    const NodeId id = next_id_++;
    alive_.insert(id);
    return id;
  }

  void remove_node(NodeId id) {
    if (alive_.erase(id) == 0) return;
    for (auto it = edges_.begin(); it != edges_.end();) {
      if (it->first == id || it->second == id) {
        it = edges_.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool add_edge(NodeId a, NodeId b) {
    if (a == b || !alive_.count(a) || !alive_.count(b)) return false;
    return edges_.insert(ordered(a, b)).second;
  }

  bool remove_edge(NodeId a, NodeId b) {
    if (a == b) return false;
    return edges_.erase(ordered(a, b)) > 0;
  }

  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const {
    if (a == b) return false;
    return edges_.count(ordered(a, b)) > 0;
  }

  [[nodiscard]] bool is_alive(NodeId id) const { return alive_.count(id) > 0; }

  [[nodiscard]] std::size_t degree(NodeId id) const {
    if (!is_alive(id)) return 0;
    std::size_t d = 0;
    for (const auto& [a, b] : edges_) d += (a == id || b == id);
    return d;
  }

  [[nodiscard]] std::size_t size() const { return alive_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const std::set<NodeId>& alive() const { return alive_; }
  [[nodiscard]] NodeId next_id() const { return next_id_; }

 private:
  static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  NodeId next_id_ = 0;
  std::set<NodeId> alive_;
  std::set<std::pair<NodeId, NodeId>> edges_;
};

void check_equivalent(const Graph& graph, const ReferenceModel& model) {
  ASSERT_EQ(graph.size(), model.size());
  ASSERT_EQ(graph.edge_count(), model.edge_count());
  ASSERT_EQ(graph.slot_count(), model.next_id());
  // Alive sets match.
  std::set<NodeId> alive(graph.alive_nodes().begin(),
                         graph.alive_nodes().end());
  ASSERT_EQ(alive, model.alive());
  // Per-node degree and adjacency match.
  for (NodeId id = 0; id < graph.slot_count(); ++id) {
    ASSERT_EQ(graph.is_alive(id), model.is_alive(id)) << "node " << id;
    ASSERT_EQ(graph.degree(id), model.degree(id)) << "node " << id;
    for (const NodeId nb : graph.neighbors(id)) {
      ASSERT_TRUE(model.has_edge(id, nb)) << id << "-" << nb;
    }
  }
}

class GraphModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphModelFuzz, RandomOperationSequencesStayEquivalent) {
  support::RngStream rng(GetParam());
  Graph graph;
  ReferenceModel model;

  // Seed population.
  for (int i = 0; i < 30; ++i) {
    graph.add_node();
    model.add_node();
  }

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.uniform_u64(100);
    const auto pick_id = [&]() -> NodeId {
      // Mix of valid, dead and out-of-range ids to probe rejection paths.
      const std::uint64_t roll = rng.uniform_u64(10);
      if (roll == 0) return static_cast<NodeId>(model.next_id() + 5);
      return static_cast<NodeId>(
          rng.uniform_u64(std::max<std::uint64_t>(1, model.next_id())));
    };
    if (op < 10) {
      const NodeId a = graph.add_node();
      const NodeId b = model.add_node();
      ASSERT_EQ(a, b);
    } else if (op < 20) {
      const NodeId id = pick_id();
      graph.remove_node(id);
      model.remove_node(id);
    } else if (op < 70) {
      const NodeId a = pick_id();
      const NodeId b = pick_id();
#if P2PSE_CHECK_ENABLED
      // Checked builds treat a dead/out-of-range add_edge endpoint as a
      // contract violation rather than a tolerant false.
      if (a != b && (!model.is_alive(a) || !model.is_alive(b))) {
        ASSERT_THROW((void)graph.add_edge(a, b), support::CheckFailure);
        ASSERT_FALSE(model.add_edge(a, b));
      } else {
        ASSERT_EQ(graph.add_edge(a, b), model.add_edge(a, b))
            << a << "-" << b << " at step " << step;
      }
#else
      ASSERT_EQ(graph.add_edge(a, b), model.add_edge(a, b))
          << a << "-" << b << " at step " << step;
#endif
    } else if (op < 85) {
      const NodeId a = pick_id();
      const NodeId b = pick_id();
      ASSERT_EQ(graph.remove_edge(a, b), model.remove_edge(a, b));
    } else {
      const NodeId a = pick_id();
      const NodeId b = pick_id();
      ASSERT_EQ(oracle::has_edge(graph, a, b), model.has_edge(a, b));
    }
    if (step % 250 == 0) check_equivalent(graph, model);
  }
  check_equivalent(graph, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphModelFuzz,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace p2pse::net
