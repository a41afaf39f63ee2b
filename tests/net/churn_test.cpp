#include "p2pse/net/churn.hpp"

#include <gtest/gtest.h>

#include "p2pse/net/analysis.hpp"
#include "p2pse/net/builders.hpp"

#include "net/graph_oracles.hpp"

namespace p2pse::net {
namespace {

Graph test_overlay(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return build_heterogeneous_random({n, 1, 10}, rng);
}

TEST(JoinNode, WiresWithinPolicyBounds) {
  Graph g = test_overlay(2000, 1);
  support::RngStream rng(2);
  for (int i = 0; i < 200; ++i) {
    const NodeId id = join_node(g, {1, 10}, rng);
    EXPECT_TRUE(g.is_alive(id));
    EXPECT_GE(g.degree(id), 1u);
    EXPECT_LE(g.degree(id), 10u);
    for (const NodeId nb : g.neighbors(id)) EXPECT_TRUE(g.is_alive(nb));
  }
  EXPECT_EQ(g.size(), 2200u);
}

TEST(JoinNode, FirstNodeIsIsolated) {
  Graph g;
  support::RngStream rng(3);
  const NodeId id = join_node(g, {1, 10}, rng);
  EXPECT_TRUE(g.is_alive(id));
  EXPECT_EQ(g.degree(id), 0u);  // nobody to wire to
}

TEST(JoinNode, SecondNodeConnectsToFirst) {
  Graph g;
  support::RngStream rng(4);
  join_node(g, {1, 10}, rng);
  const NodeId second = join_node(g, {1, 10}, rng);
  EXPECT_EQ(g.degree(second), 1u);
}

TEST(AddNodes, AddsExactCount) {
  Graph g = test_overlay(500, 5);
  support::RngStream rng(6);
  add_nodes(g, 123, {1, 10}, rng);
  EXPECT_EQ(g.size(), 623u);
}

TEST(RemoveRandomNodes, RemovesExactCount) {
  Graph g = test_overlay(1000, 7);
  support::RngStream rng(8);
  remove_random_nodes(g, 250, rng);
  EXPECT_EQ(g.size(), 750u);
}

TEST(RemoveRandomNodes, ClampsToPopulation) {
  Graph g = test_overlay(20, 9);
  support::RngStream rng(10);
  remove_random_nodes(g, 100, rng);
  EXPECT_EQ(g.size(), 0u);
}

TEST(RemoveFraction, RemovesQuarter) {
  Graph g = test_overlay(10000, 11);
  support::RngStream rng(12);
  const std::size_t removed = remove_fraction(g, 0.25, rng);
  EXPECT_EQ(removed, 2500u);
  EXPECT_EQ(g.size(), 7500u);
}

TEST(RemoveFraction, ClampsFraction) {
  Graph g = test_overlay(100, 13);
  support::RngStream rng(14);
  EXPECT_EQ(remove_fraction(g, -0.5, rng), 0u);
  EXPECT_EQ(g.size(), 100u);
  EXPECT_EQ(remove_fraction(g, 2.0, rng), 100u);
  EXPECT_EQ(g.size(), 0u);
}

TEST(RemoveFraction, NoHealingDegradesConnectivity) {
  // The paper's mechanism for Aggregation's failure mode: removal without
  // rewiring must strictly lose edges and eventually fragment the overlay.
  Graph g = test_overlay(5000, 15);
  support::RngStream rng(16);
  const double before = oracle::largest_component_fraction(g);
  remove_fraction(g, 0.6, rng);
  const double after = oracle::largest_component_fraction(g);
  EXPECT_LT(after, before + 1e-12);
  // Survivors keep only surviving links (no new edges appear).
  for (const NodeId u : g.alive_nodes()) {
    for (const NodeId v : g.neighbors(u)) EXPECT_TRUE(g.is_alive(v));
  }
}

TEST(ConstantChurn, PureArrivalsGrowLinearly) {
  Graph g = test_overlay(1000, 17);
  support::RngStream rng(18);
  ConstantChurn churn(50.0, 0.0);
  for (int step = 0; step < 10; ++step) churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 1500u);
}

TEST(ConstantChurn, PureDeparturesShrinkLinearly) {
  Graph g = test_overlay(1000, 19);
  support::RngStream rng(20);
  ConstantChurn churn(0.0, 50.0);
  for (int step = 0; step < 10; ++step) churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 500u);
}

TEST(ConstantChurn, FractionalRatesAccumulate) {
  Graph g = test_overlay(100, 21);
  support::RngStream rng(22);
  ConstantChurn churn(0.5, 0.0);
  churn.step(g, 1.0, rng);  // credit 0.5 -> no arrival yet
  EXPECT_EQ(g.size(), 100u);
  churn.step(g, 1.0, rng);  // credit 1.0 -> one arrival
  EXPECT_EQ(g.size(), 101u);
}

TEST(ConstantChurn, BalancedChurnKeepsSizeStable) {
  Graph g = test_overlay(1000, 23);
  support::RngStream rng(24);
  ConstantChurn churn(20.0, 20.0);
  for (int step = 0; step < 50; ++step) churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 1000u);
}

TEST(ConstantChurn, ZeroDtIsNoop) {
  Graph g = test_overlay(100, 25);
  support::RngStream rng(26);
  ConstantChurn churn(100.0, 100.0);
  churn.step(g, 0.0, rng);
  churn.step(g, -1.0, rng);
  EXPECT_EQ(g.size(), 100u);
}

TEST(ConstantChurn, SurvivesChurnToExtinction) {
  Graph g = test_overlay(50, 27);
  support::RngStream rng(28);
  ConstantChurn churn(0.0, 1000.0);
  churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 0u);
  churn.step(g, 1.0, rng);  // must not crash on an empty overlay
  EXPECT_EQ(g.size(), 0u);
}

TEST(ConstantChurn, SetRatesCarriesFractionalCredit) {
  // Regression: rebuilding the churn object on every rate change dropped
  // the accumulated fractional credit. Ten steps at 0.45 arrivals/unit with
  // a (same-value) rate change between each step must still produce
  // floor(4.5) = 4 arrivals, not zero.
  Graph g = test_overlay(100, 31);
  support::RngStream rng(32);
  ConstantChurn churn(0.45, 0.0);
  for (int step = 0; step < 10; ++step) {
    churn.step(g, 1.0, rng);
    churn.set_rates(0.45, 0.0);
  }
  EXPECT_EQ(g.size(), 104u);
}

TEST(ConstantChurn, SetRatesKeepsCreditObservable) {
  // The credit is observed through the departures it produces.
  Graph g = test_overlay(100, 33);
  support::RngStream rng(34);
  ConstantChurn churn(0.0, 0.9);
  churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 100u);  // 0.9 departure credit, no departure yet
  churn.set_rates(5.0, 0.2);
  EXPECT_DOUBLE_EQ(churn.arrival_rate(), 5.0);
  EXPECT_DOUBLE_EQ(churn.departure_rate(), 0.2);
  // One more unit: 5 arrivals, and the carried 0.9 + 0.2 = 1.1 departure
  // credit finally converts into one departure.
  churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 104u);
  // The 0.1 left over carries too: 0.1 + 0.95 crosses one departure, where
  // 0.95 alone would not.
  churn.set_rates(0.0, 0.95);
  churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 103u);
}

TEST(ConstantChurn, ArrivalsKeepDegreeDistributionStationary) {
  // Replacing half the population through churn should keep the average
  // degree in the builder's regime (joins use the same degree policy).
  Graph g = test_overlay(5000, 29);
  support::RngStream rng(30);
  ConstantChurn churn(100.0, 100.0, {1, 10});
  for (int step = 0; step < 25; ++step) churn.step(g, 1.0, rng);
  EXPECT_EQ(g.size(), 5000u);
  EXPECT_GT(g.average_degree(), 4.0);
  EXPECT_LT(g.average_degree(), 9.0);
}

}  // namespace
}  // namespace p2pse::net
