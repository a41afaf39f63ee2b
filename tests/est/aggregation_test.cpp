#include "p2pse/est/aggregation.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "p2pse/net/builders.hpp"
#include "p2pse/net/churn.hpp"
#include "p2pse/support/stats.hpp"

#include "est/aggregation_oracles.hpp"

namespace p2pse::est {
namespace {

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

TEST(AggregationConfig, Validation) {
  EXPECT_THROW(Aggregation({.rounds_per_epoch = 0}), std::invalid_argument);
}

TEST(Aggregation, StartEpochSetsIndicator) {
  sim::Simulator sim = hetero_sim(100, 1);
  Aggregation agg({.rounds_per_epoch = 10});
  agg.start_epoch(sim, 5);
  EXPECT_DOUBLE_EQ(agg.value_at(5), 1.0);
  EXPECT_DOUBLE_EQ(agg.value_at(0), 0.0);
  EXPECT_DOUBLE_EQ(agg.total_mass(sim), 1.0);
  EXPECT_EQ(agg.epoch(), 1u);
  EXPECT_EQ(agg.initiator(), 5u);
}

TEST(Aggregation, StartEpochRequiresAliveInitiator) {
  sim::Simulator sim = hetero_sim(50, 2);
  sim.graph().remove_node(3);
  Aggregation agg({.rounds_per_epoch = 10});
  EXPECT_THROW(agg.start_epoch(sim, 3), std::invalid_argument);
}

TEST(Aggregation, MassConservedUnderStaticMembership) {
  sim::Simulator sim = hetero_sim(2000, 3);
  support::RngStream rng(4);
  Aggregation agg({.rounds_per_epoch = 100});
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 100; ++round) {
    agg.run_round(sim, rng);
    EXPECT_NEAR(agg.total_mass(sim), 1.0, 1e-9);
  }
}

TEST(Aggregation, ConvergesToExactCountOnStaticGraph) {
  sim::Simulator sim = hetero_sim(5000, 5);
  support::RngStream rng(6);
  Aggregation agg({.rounds_per_epoch = 60});
  const Estimate e = agg.estimate(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(support::quality_percent(e.value, 5000.0), 100.0, 2.0);
}

TEST(Aggregation, DispersionShrinksMonotonically) {
  sim::Simulator sim = hetero_sim(2000, 7);
  support::RngStream rng(8);
  Aggregation agg({.rounds_per_epoch = 50});
  agg.start_epoch(sim, 0);
  double previous = oracle::value_dispersion(agg, sim);
  for (int round = 0; round < 30; ++round) {
    agg.run_round(sim, rng);
    const double current = oracle::value_dispersion(agg, sim);
    EXPECT_LT(current, previous * 1.05);  // allow tiny stochastic wiggle
    previous = current;
  }
  EXPECT_LT(previous, 0.1);
}

TEST(Aggregation, EveryNodeEventuallyKnowsTheSize) {
  // §V: "eventually the size estimation is available at each node".
  sim::Simulator sim = hetero_sim(1000, 9);
  support::RngStream rng(10);
  Aggregation agg({.rounds_per_epoch = 80});
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 80; ++round) agg.run_round(sim, rng);
  for (const net::NodeId id : sim.graph().alive_nodes()) {
    const Estimate e = agg.estimate_at(sim, id);
    ASSERT_TRUE(e.valid);
    EXPECT_NEAR(support::quality_percent(e.value, 1000.0), 100.0, 10.0);
  }
}

TEST(Aggregation, MessageCostIsTwoPerNodePerRound) {
  sim::Simulator sim = hetero_sim(3000, 11);
  support::RngStream rng(12);
  Aggregation agg({.rounds_per_epoch = 10});
  const Estimate e = agg.estimate(sim, 0, rng);
  // Overhead = nodes * rounds * 2 (§IV-E), minus isolated nodes that skip.
  EXPECT_NEAR(static_cast<double>(e.messages), 3000.0 * 10.0 * 2.0,
              3000.0 * 10.0 * 0.02);
}

TEST(Aggregation, EpochRestartResetsStaleValues) {
  sim::Simulator sim = hetero_sim(500, 13);
  support::RngStream rng(14);
  Aggregation agg({.rounds_per_epoch = 40});
  (void)agg.estimate(sim, 0, rng);
  agg.start_epoch(sim, 7);
  EXPECT_DOUBLE_EQ(agg.value_at(7), 1.0);
  EXPECT_NEAR(agg.total_mass(sim), 1.0, 1e-12);
  EXPECT_EQ(agg.epoch(), 2u);
}

TEST(Aggregation, NewNodesJoinWithZero) {
  sim::Simulator sim = hetero_sim(500, 15);
  support::RngStream rng(16);
  Aggregation agg({.rounds_per_epoch = 40});
  agg.start_epoch(sim, 0);
  support::RngStream churn_rng(17);
  net::add_nodes(sim.graph(), 100, {1, 10}, churn_rng);
  agg.run_round(sim, rng);
  // Mass still 1: arrivals contribute nothing (conservative effect).
  EXPECT_NEAR(agg.total_mass(sim), 1.0, 1e-9);
}

TEST(Aggregation, DeparturesRemoveMass) {
  sim::Simulator sim = hetero_sim(500, 18);
  support::RngStream rng(19);
  Aggregation agg({.rounds_per_epoch = 40});
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 30; ++round) agg.run_round(sim, rng);
  support::RngStream churn_rng(20);
  net::remove_fraction(sim.graph(), 0.5, churn_rng);
  // Half the (well-mixed) mass leaves with the removed nodes.
  EXPECT_NEAR(agg.total_mass(sim), 0.5, 0.15);
}

TEST(Aggregation, GrowthIsTrackedAcrossEpochs) {
  // The paper: "fairly good adaptation to a growing network" because each
  // restart re-counts the current membership.
  sim::Simulator sim = hetero_sim(1000, 21);
  support::RngStream rng(22);
  support::RngStream churn_rng(23);
  Aggregation agg({.rounds_per_epoch = 60});
  (void)agg.estimate(sim, 0, rng);
  net::add_nodes(sim.graph(), 1000, {1, 10}, churn_rng);
  const Estimate e = agg.estimate(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(support::quality_percent(e.value, 2000.0), 100.0, 5.0);
}

TEST(Aggregation, UnreachedNodeHasInvalidEstimate) {
  net::Graph g(4);
  g.add_edge(0, 1);  // {2,3} disconnected from the initiator
  g.add_edge(2, 3);
  sim::Simulator sim(std::move(g), 24);
  support::RngStream rng(25);
  Aggregation agg({.rounds_per_epoch = 20});
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 20; ++round) agg.run_round(sim, rng);
  EXPECT_TRUE(agg.estimate_at(sim, 0).valid);
  EXPECT_FALSE(agg.estimate_at(sim, 2).valid);  // value stuck at 0
  // The initiator's component double-counts: two nodes share mass 1, so the
  // local estimate reads the component as size 2, not 4.
  EXPECT_NEAR(agg.estimate_at(sim, 0).value, 2.0, 1e-6);
}

TEST(Aggregation, PushOnlyVariantAlsoConvergesButSlower) {
  sim::Simulator sim = hetero_sim(1000, 26);
  support::RngStream rng_pp(27), rng_po(27);
  Aggregation push_pull({.rounds_per_epoch = 25, .push_pull = true});
  Aggregation push_only({.rounds_per_epoch = 25, .push_pull = false});
  push_pull.start_epoch(sim, 0);
  for (int r = 0; r < 25; ++r) push_pull.run_round(sim, rng_pp);
  const double disp_pp = oracle::value_dispersion(push_pull, sim);
  push_only.start_epoch(sim, 0);
  for (int r = 0; r < 25; ++r) push_only.run_round(sim, rng_po);
  const double disp_po = oracle::value_dispersion(push_only, sim);
  EXPECT_LT(disp_pp, disp_po);  // push-pull mixes faster
  EXPECT_NEAR(push_only.total_mass(sim), 1.0, 1e-9);  // still conservative
}

TEST(Aggregation, EstimateAtDeadNodeInvalid) {
  sim::Simulator sim = hetero_sim(100, 28);
  Aggregation agg({.rounds_per_epoch = 10});
  agg.start_epoch(sim, 0);
  sim.graph().remove_node(42);
  EXPECT_FALSE(agg.estimate_at(sim, 42).valid);
  EXPECT_FALSE(agg.estimate_at(sim, 9999).valid);
}

// Convergence-speed property: rounds to 99% quality grows ~log N (paper: 40
// rounds at 1e5, 50 at 1e6).
using ConvergenceCase = std::tuple<std::size_t, std::uint64_t>;

class AggregationConvergence
    : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(AggregationConvergence, ReachesOnePercentWithinBudget) {
  const auto& [nodes, seed] = GetParam();
  sim::Simulator sim = hetero_sim(nodes, seed);
  support::RngStream rng(seed ^ 0x777);
  Aggregation agg({.rounds_per_epoch = 60});
  agg.start_epoch(sim, 0);
  std::uint32_t converged_at = 0;
  for (std::uint32_t round = 1; round <= 60; ++round) {
    agg.run_round(sim, rng);
    const Estimate e = agg.estimate_at(sim, 0);
    if (e.valid &&
        std::abs(support::quality_percent(e.value, static_cast<double>(nodes)) -
                 100.0) <= 1.0) {
      converged_at = round;
      break;
    }
  }
  ASSERT_GT(converged_at, 0u) << "did not converge in 60 rounds";
  EXPECT_LE(converged_at, 45u);  // paper: ~40 at 1e5; small graphs faster
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationConvergence,
    ::testing::Combine(::testing::Values(std::size_t{1000}, std::size_t{10000},
                                         std::size_t{50000}),
                       ::testing::Values(std::uint64_t{5}, std::uint64_t{55})),
    [](const ::testing::TestParamInfo<ConvergenceCase>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace p2pse::est
