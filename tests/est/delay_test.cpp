// Latency models, and the §V delay conjecture measured through the channel:
// on a lossless unit-latency network each estimator's Estimate::delay is
// its critical path counted in hops.
#include <gtest/gtest.h>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/sim/latency.hpp"
#include "p2pse/support/stats.hpp"

namespace p2pse::est {
namespace {

using sim::LatencyModel;

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

/// Every message takes exactly one unit and none is lost.
sim::Simulator unit_latency_sim(std::size_t n, std::uint64_t seed) {
  sim::Simulator sim = hetero_sim(n, seed);
  sim.set_network(sim::NetworkConfig::parse("net:latency=constant:1"));
  return sim;
}

TEST(LatencyModel, ConstantIsExact) {
  support::RngStream rng(1);
  const LatencyModel m = LatencyModel::constant(5.0);
  EXPECT_DOUBLE_EQ(m.sample(rng), 5.0);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
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

TEST(LatencyModel, Validation) {
  EXPECT_THROW((void)LatencyModel::constant(-1.0), std::invalid_argument);
  EXPECT_THROW((void)LatencyModel::uniform(5.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)LatencyModel::uniform(-1.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)LatencyModel::exponential(0.0), std::invalid_argument);
}

TEST(DelayAnalysis, SampleCollideDelayMatchesItsMessageCount) {
  // Walk hops and sample replies run one after another, so every message
  // is on the critical path: at one unit per hop the delay is the count.
  sim::Simulator sim = unit_latency_sim(3000, 5);
  support::RngStream rng(6);
  SampleCollide sc({.timer = 10.0, .collisions = 20});
  const Estimate e = sc.estimate(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_GT(e.value, 0.0);
  EXPECT_DOUBLE_EQ(e.delay, static_cast<double>(e.messages));
}

TEST(DelayAnalysis, UnitLatencyLeavesTheEstimateAlone) {
  // The channel draws from its own stream, never the estimator's: a
  // lossless unit-latency run reports the ideal channel's value and
  // message count, and only its measured delay differs.
  const auto both = [](Estimator& prototype) {
    sim::Simulator ideal = hetero_sim(2000, 13);
    sim::Simulator unit = unit_latency_sim(2000, 13);
    support::RngStream ideal_rng(14);
    support::RngStream unit_rng(14);
    const Estimate a = prototype.clone()->estimate(ideal, 0, ideal_rng);
    const Estimate b = prototype.clone()->estimate(unit, 0, unit_rng);
    SCOPED_TRACE(std::string(prototype.name()));
    ASSERT_TRUE(a.valid);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.delay, 0.0);
    EXPECT_GT(b.delay, 0.0);
  };
  SampleCollide sc({.timer = 10.0, .collisions = 20});
  HopsSampling hs({});
  Aggregation agg({.rounds_per_epoch = 20});
  both(sc);
  both(hs);
  both(agg);
}

TEST(DelayAnalysis, HopsSamplingDelayIsSpreadDepth) {
  // The spread advances one hop per round in parallel, and the replies
  // come straight back: one unit per round plus one.
  sim::Simulator sim = unit_latency_sim(3000, 7);
  support::RngStream rng(8);
  const HopsSampling hs({});
  const HopsSamplingResult r = hs.run_once(sim, 0, rng);
  EXPECT_DOUBLE_EQ(r.estimate.delay,
                   static_cast<double>(r.spread_rounds) + 1.0);
  // Far below the message count: the poll runs in parallel.
  EXPECT_LT(r.estimate.delay, 100.0);
  EXPECT_GT(static_cast<double>(r.estimate.messages), 1000.0);
}

TEST(DelayAnalysis, AggregationDelayIsRoundsTimesPeriod) {
  // Each synchronized round lasts one push and one pull.
  sim::Simulator sim = unit_latency_sim(3000, 9);
  support::RngStream rng(10);
  Aggregation agg({.rounds_per_epoch = 50});
  const Estimate e = agg.estimate(sim, 0, rng);
  EXPECT_DOUBLE_EQ(e.delay, 100.0);  // 50 rounds * 2 hops * 1 unit
}

TEST(DelayAnalysis, PaperSectionVConjectureHolds) {
  // "HopsSampling probably outperforms the other algorithms in terms of
  // delay": its parallel spread finishes before Aggregation's 50
  // synchronized rounds, which finish orders of magnitude before S&C's
  // sequential sampling.
  sim::Simulator sim = unit_latency_sim(10000, 11);
  support::RngStream rng(12);
  HopsSampling hs({});
  SampleCollide sc({.timer = 10.0, .collisions = 200});
  Aggregation agg({.rounds_per_epoch = 50});
  const double hs_delay = hs.estimate(sim, 0, rng).delay;
  const double sc_delay = sc.estimate(sim, 0, rng).delay;
  const double agg_delay = agg.estimate(sim, 0, rng).delay;

  EXPECT_LT(hs_delay, agg_delay);
  EXPECT_LT(agg_delay, sc_delay / 100.0);
}

}  // namespace
}  // namespace p2pse::est
