// Latency models + the §V delay conjecture implemented in est/delay.*.
#include "p2pse/est/delay.hpp"

#include <gtest/gtest.h>

#include "p2pse/net/builders.hpp"
#include "p2pse/support/stats.hpp"

namespace p2pse::est {
namespace {

using sim::LatencyModel;

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

TEST(LatencyModel, ConstantIsExact) {
  support::RngStream rng(1);
  const LatencyModel m = LatencyModel::constant(5.0);
  EXPECT_DOUBLE_EQ(m.sample(rng), 5.0);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.sequential(10, rng), 50.0);
}

TEST(LatencyModel, UniformStaysInRange) {
  support::RngStream rng(2);
  const LatencyModel m = LatencyModel::uniform(10.0, 20.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = m.sample(rng);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 20.0);
  }
  EXPECT_DOUBLE_EQ(m.mean(), 15.0);
}

TEST(LatencyModel, ExponentialHasRequestedMean) {
  support::RngStream rng(3);
  const LatencyModel m = LatencyModel::exponential(40.0);
  support::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(m.sample(rng));
  EXPECT_NEAR(stats.mean(), 40.0, 1.5);
  EXPECT_DOUBLE_EQ(m.mean(), 40.0);
}

TEST(LatencyModel, SequentialSumsIndependentHops) {
  support::RngStream rng(4);
  const LatencyModel m = LatencyModel::uniform(1.0, 3.0);
  support::RunningStats stats;
  for (int i = 0; i < 2000; ++i) stats.add(m.sequential(100, rng));
  EXPECT_NEAR(stats.mean(), 200.0, 5.0);
}

TEST(LatencyModel, Validation) {
  EXPECT_THROW((void)LatencyModel::constant(-1.0), std::invalid_argument);
  EXPECT_THROW((void)LatencyModel::uniform(5.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)LatencyModel::uniform(-1.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)LatencyModel::exponential(0.0), std::invalid_argument);
}

TEST(DelayAnalysis, SampleCollideDelayMatchesItsMessageCount) {
  // With constant hop latency 1, a fully sequential protocol's delay equals
  // its total message count (every message is on the critical path).
  sim::Simulator sim = hetero_sim(3000, 5);
  support::RngStream rng(6);
  const SampleCollide sc({.timer = 10.0, .collisions = 20});
  const DelayConfig config{.hop_latency = LatencyModel::constant(1.0)};
  const DelayBreakdown d = sample_collide_delay(sim, sc, 0, config, rng);
  EXPECT_DOUBLE_EQ(d.total, static_cast<double>(d.messages));
  EXPECT_GT(d.estimate, 0.0);
}

TEST(DelayAnalysis, SampleCollideDelayRunsTheEstimatorsCollisionLoop) {
  // Under loss a walk or its reply can be lost. A lost walk is no sample:
  // it must neither enter the collision set nor count toward C, and the
  // attempt bound applies. With constant hop latency the delay analysis
  // draws nothing from the estimator's stream, so it must agree with
  // estimate_once from the same seed.
  const SampleCollide sc({.timer = 10.0, .collisions = 20});
  const DelayConfig config{.hop_latency = LatencyModel::constant(1.0)};
  const auto lossy_sim = [] {
    sim::Simulator sim = hetero_sim(2000, 13);
    sim.set_network(sim::NetworkConfig::parse("net:loss=0.3"));
    return sim;
  };
  sim::Simulator delay_sim = lossy_sim();
  support::RngStream delay_rng(14);
  const DelayBreakdown d =
      sample_collide_delay(delay_sim, sc, 0, config, delay_rng);
  sim::Simulator estimate_sim = lossy_sim();
  support::RngStream estimate_rng(14);
  const Estimate e = sc.estimate_once(estimate_sim, 0, estimate_rng);
  ASSERT_TRUE(e.valid);
  EXPECT_GT(delay_sim.channel().counters().arq_timeouts, 0u);
  EXPECT_DOUBLE_EQ(d.estimate, e.value);
  EXPECT_EQ(d.messages, e.messages);
}

TEST(DelayAnalysis, HopsSamplingDelayIsSpreadDepth) {
  sim::Simulator sim = hetero_sim(3000, 7);
  support::RngStream rng(8);
  const HopsSampling hs({});
  const DelayConfig config{.hop_latency = LatencyModel::constant(1.0)};
  const DelayBreakdown d = hops_sampling_delay(sim, hs, 0, config, rng);
  // The spread dies within tens of rounds; delay must be FAR below the
  // message count (parallelism).
  EXPECT_LT(d.total, 100.0);
  EXPECT_GT(static_cast<double>(d.messages), 1000.0);
}

TEST(DelayAnalysis, AggregationDelayIsRoundsTimesPeriod) {
  sim::Simulator sim = hetero_sim(3000, 9);
  support::RngStream rng(10);
  Aggregation agg({.rounds_per_epoch = 50});
  const DelayConfig config{.hop_latency = LatencyModel::constant(1.0),
                           .aggregation_period_hops = 2.0};
  const DelayBreakdown d = aggregation_delay(sim, agg, 0, config, rng);
  EXPECT_DOUBLE_EQ(d.total, 100.0);  // 50 rounds * 2 hops * 1 unit
}

TEST(DelayAnalysis, PaperSectionVConjectureHolds) {
  // "HopsSampling probably outperforms the other algorithms in terms of
  // delay": under any sensible hop latency, HS's parallel spread finishes
  // orders of magnitude before S&C's sequential sampling, and before
  // Aggregation's 50 synchronized rounds at realistic periods.
  sim::Simulator sim = hetero_sim(10000, 11);
  support::RngStream rng(12);
  const DelayConfig config{.hop_latency = LatencyModel::constant(1.0),
                           .aggregation_period_hops = 2.0};
  const HopsSampling hs({});
  const DelayBreakdown hs_delay = hops_sampling_delay(sim, hs, 0, config, rng);
  const SampleCollide sc({.timer = 10.0, .collisions = 200});
  const DelayBreakdown sc_delay =
      sample_collide_delay(sim, sc, 0, config, rng);
  Aggregation agg({.rounds_per_epoch = 50});
  const DelayBreakdown agg_delay =
      aggregation_delay(sim, agg, 0, config, rng);

  EXPECT_LT(hs_delay.total, agg_delay.total);
  EXPECT_LT(hs_delay.total, sc_delay.total / 100.0);
  EXPECT_LT(agg_delay.total, sc_delay.total);  // 200 sequential samples lose
}

}  // namespace
}  // namespace p2pse::est
