#include "p2pse/est/aggregation_suite.hpp"

#include <gtest/gtest.h>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/support/stats.hpp"

namespace p2pse::est {
namespace {

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

TEST(MultiAggregation, ValidatesConfig) {
  EXPECT_THROW(MultiAggregation({.rounds_per_epoch = 0, .instances = 4}),
               std::invalid_argument);
  EXPECT_THROW(MultiAggregation({.rounds_per_epoch = 10, .instances = 0}),
               std::invalid_argument);
}

TEST(MultiAggregation, StartEpochRequiresNodes) {
  sim::Simulator sim(net::Graph(0), 1);
  support::RngStream rng(2);
  MultiAggregation agg({.rounds_per_epoch = 10, .instances = 4});
  EXPECT_THROW(agg.start_epoch(sim, rng), std::invalid_argument);
}

TEST(MultiAggregation, ConvergesToTheCount) {
  sim::Simulator sim = hetero_sim(3000, 3);
  support::RngStream rng(4);
  MultiAggregation agg({.rounds_per_epoch = 50, .instances = 8});
  const Estimate e = agg.estimate(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(support::quality_percent(e.value, 3000.0), 100.0, 3.0);
}

TEST(MultiAggregation, PiggybackedInstancesCostNoExtraMessages) {
  sim::Simulator sim_multi = hetero_sim(2000, 5);
  sim::Simulator sim_single = hetero_sim(2000, 5);
  support::RngStream rng_a(6), rng_b(6);
  MultiAggregation multi({.rounds_per_epoch = 30, .instances = 16});
  Aggregation single({.rounds_per_epoch = 30});
  const Estimate em = multi.estimate(sim_multi, 0, rng_a);
  const Estimate es = single.estimate(sim_single, 0, rng_b);
  EXPECT_EQ(em.messages, es.messages);  // same exchange count
}

TEST(MultiAggregation, MedianBeatsSingleInstanceAtFewRounds) {
  // At truncated epochs (before full convergence) single-instance estimates
  // scatter wildly; the median over instances is much tighter. This is the
  // variance-reduction claim of [9].
  constexpr std::uint32_t kShortEpoch = 15;
  support::RunningStats single_err, multi_err;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Simulator sim = hetero_sim(2000, 100 + seed);
    support::RngStream rng(200 + seed);
    Aggregation single({.rounds_per_epoch = kShortEpoch});
    const Estimate es = single.estimate(sim, 0, rng);
    if (es.valid) {
      single_err.add(
          std::abs(support::quality_percent(es.value, 2000.0) - 100.0));
    } else {
      single_err.add(100.0);
    }
    MultiAggregation multi(
        {.rounds_per_epoch = kShortEpoch, .instances = 16});
    const Estimate em = multi.estimate(sim, 0, rng);
    if (em.valid) {
      multi_err.add(
          std::abs(support::quality_percent(em.value, 2000.0) - 100.0));
    } else {
      multi_err.add(100.0);
    }
  }
  EXPECT_LT(multi_err.mean(), single_err.mean());
}

TEST(MultiAggregation, MeanCombinerWorksToo) {
  sim::Simulator sim = hetero_sim(2000, 7);
  support::RngStream rng(8);
  MultiAggregation agg({.rounds_per_epoch = 50,
                        .instances = 8,
                        .combine = MultiAggregationConfig::Combine::kMean});
  const Estimate e = agg.estimate(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(support::quality_percent(e.value, 2000.0), 100.0, 5.0);
}

TEST(MultiAggregation, InstanceEstimatesExposed) {
  sim::Simulator sim = hetero_sim(1000, 9);
  support::RngStream rng(10);
  MultiAggregation agg({.rounds_per_epoch = 60, .instances = 5});
  agg.start_epoch(sim, rng);
  for (int r = 0; r < 60; ++r) agg.run_round(sim, rng);
  const auto values = agg.instance_estimates(0);
  EXPECT_EQ(values.size(), 5u);
  for (const double v : values) EXPECT_NEAR(v, 1000.0, 120.0);
}

TEST(MultiAggregation, EstimateAtDeadNodeInvalid) {
  sim::Simulator sim = hetero_sim(100, 11);
  support::RngStream rng(12);
  MultiAggregation agg({.rounds_per_epoch = 10, .instances = 2});
  agg.start_epoch(sim, rng);
  sim.graph().remove_node(17);
  EXPECT_FALSE(agg.estimate_at(sim, 17).valid);
}

}  // namespace
}  // namespace p2pse::est
