// Cross-module property sweeps: every estimator against every topology, and
// determinism of the full pipeline.
#include <gtest/gtest.h>

#include <tuple>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/support/stats.hpp"

#include "net/graph_oracles.hpp"

namespace p2pse {
namespace {

net::Graph build(const std::string& kind, std::size_t nodes,
                 support::RngStream& rng) {
  if (kind == "hetero") {
    return net::build_heterogeneous_random({nodes, 1, 10}, rng);
  }
  if (kind == "homo") return net::build_homogeneous_random({nodes, 7}, rng);
  if (kind == "ba") return net::build_barabasi_albert({nodes, 3}, rng);
  return net::oracle::build_erdos_renyi({nodes, 7.2}, rng);
}

using TopologyCase = std::tuple<std::string, std::uint64_t>;

class EstimatorsAcrossTopologies
    : public ::testing::TestWithParam<TopologyCase> {
 protected:
  static constexpr std::size_t kNodes = 5000;
};

TEST_P(EstimatorsAcrossTopologies, SampleCollideWithinEnvelope) {
  const auto& [kind, seed] = GetParam();
  support::RngStream build_rng(seed);
  sim::Simulator sim(build(kind, kNodes, build_rng), seed ^ 0xf00d);
  support::RngStream rng(seed ^ 0xbeef);
  est::SampleCollide sc({.timer = 10.0, .collisions = 100});
  support::RunningStats quality;
  for (int i = 0; i < 3; ++i) {
    const est::Estimate e = sc.estimate_point(sim, 0, rng);
    ASSERT_TRUE(e.valid);
    quality.add(support::quality_percent(e.value, kNodes));
  }
  EXPECT_NEAR(quality.mean(), 100.0, 25.0);
}

TEST_P(EstimatorsAcrossTopologies, AggregationConvergesEverywhere) {
  const auto& [kind, seed] = GetParam();
  support::RngStream build_rng(seed);
  sim::Simulator sim(build(kind, kNodes, build_rng), seed ^ 0xf00d);
  support::RngStream rng(seed ^ 0xcafe);
  est::Aggregation agg({.rounds_per_epoch = 60});
  const est::Estimate e = agg.estimate(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(support::quality_percent(e.value, kNodes), 100.0, 5.0);
}

TEST_P(EstimatorsAcrossTopologies, HopsSamplingStaysInBand) {
  const auto& [kind, seed] = GetParam();
  support::RngStream build_rng(seed);
  sim::Simulator sim(build(kind, kNodes, build_rng), seed ^ 0xf00d);
  support::RngStream rng(seed ^ 0xd00d);
  const est::HopsSampling hs({});
  support::RunningStats quality;
  for (int i = 0; i < 5; ++i) {
    const est::HopsSamplingResult r = hs.run_once(sim, 0, rng);
    ASSERT_TRUE(r.estimate.valid);
    quality.add(support::quality_percent(r.estimate.value, kNodes));
  }
  // Wide band: HS is noisy and biased low, especially on scale-free.
  EXPECT_GT(quality.mean(), 20.0);
  EXPECT_LT(quality.mean(), 160.0);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, EstimatorsAcrossTopologies,
    ::testing::Combine(::testing::Values("hetero", "homo", "ba", "er"),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{42})),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// Full-pipeline determinism: identical seeds give identical figures.
TEST(PipelineDeterminism, DynamicRunIsBitStable) {
  const auto factory = [](support::RngStream& rng) {
    return net::build_heterogeneous_random({2000, 1, 10}, rng);
  };
  est::SampleCollide sc({.timer = 10.0, .collisions = 20});
  const scenario::ScenarioRunner a(scenario::catastrophic_script(2000), factory,
                                   99);
  const scenario::ScenarioRunner b(scenario::catastrophic_script(2000), factory,
                                   99);
  const scenario::Series sa = a.run(sc, {.estimations = 15}, 1);
  const scenario::Series sb = b.run(sc, {.estimations = 15}, 1);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].estimate, sb[i].estimate);
    EXPECT_DOUBLE_EQ(sa[i].truth, sb[i].truth);
    EXPECT_EQ(sa[i].messages, sb[i].messages);
  }
}

// Seed sensitivity: different seeds must give different (but sane) figures.
TEST(PipelineDeterminism, SeedsChangeOutcomesSanely) {
  const auto factory = [](support::RngStream& rng) {
    return net::build_heterogeneous_random({2000, 1, 10}, rng);
  };
  est::SampleCollide sc({.timer = 10.0, .collisions = 20});
  const scenario::ScenarioRunner a(scenario::static_script(), factory, 1);
  const scenario::ScenarioRunner b(scenario::static_script(), factory, 2);
  const scenario::Series sa = a.run(sc, {.estimations = 5}, 0);
  const scenario::Series sb = b.run(sc, {.estimations = 5}, 0);
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    any_diff |= sa[i].estimate != sb[i].estimate;
    EXPECT_NEAR(sa[i].estimate, 2000.0, 1400.0);
    EXPECT_NEAR(sb[i].estimate, 2000.0, 1400.0);
  }
  EXPECT_TRUE(any_diff);
}

// Failure injection: estimators must stay well-defined while the overlay
// fragments under extreme churn.
TEST(FailureInjection, EstimatorsSurviveFragmentedOverlay) {
  support::RngStream build_rng(7);
  net::Graph g = net::build_heterogeneous_random({3000, 1, 10}, build_rng);
  support::RngStream churn_rng(8);
  net::remove_fraction(g, 0.7, churn_rng);  // heavily fragmented
  sim::Simulator sim(std::move(g), 9);
  support::RngStream rng(10);
  const net::NodeId initiator = sim.graph().random_alive(rng);
  ASSERT_NE(initiator, net::kInvalidNode);

  est::SampleCollide sc({.timer = 10.0, .collisions = 10});
  const est::Estimate sc_est = sc.estimate_point(sim, initiator, rng);
  EXPECT_TRUE(sc_est.valid);  // walks stay inside the initiator's component
  EXPECT_GT(sc_est.value, 0.0);

  const est::HopsSampling hs({});
  const est::HopsSamplingResult hs_res = hs.run_once(sim, initiator, rng);
  EXPECT_TRUE(hs_res.estimate.valid);
  EXPECT_LE(static_cast<double>(hs_res.reached),
            static_cast<double>(sim.graph().size()));

  est::Aggregation agg({.rounds_per_epoch = 30});
  const est::Estimate agg_est = agg.estimate(sim, initiator, rng);
  // The initiator's component is counted; the estimate is the component
  // size, not the overlay size — well-defined, even if "wrong".
  EXPECT_TRUE(agg_est.valid);
  EXPECT_LT(agg_est.value, 3001.0);
}

TEST(FailureInjection, SingleNodeOverlayEverywhere) {
  sim::Simulator sim(net::Graph(1), 11);
  support::RngStream rng(12);
  est::SampleCollide sc({.timer = 10.0, .collisions = 2});
  const est::Estimate e = sc.estimate_point(sim, 0, rng);
  EXPECT_TRUE(e.valid);
  EXPECT_NEAR(e.value, 2.25, 2.0);  // (l+1)^2/(2l); tiny-N bias is expected

  const est::HopsSampling hs({});
  EXPECT_DOUBLE_EQ(hs.run_once(sim, 0, rng).estimate.value, 1.0);

  est::Aggregation agg({.rounds_per_epoch = 5});
  const est::Estimate agg_est = agg.estimate(sim, 0, rng);
  ASSERT_TRUE(agg_est.valid);
  EXPECT_DOUBLE_EQ(agg_est.value, 1.0);
}

}  // namespace
}  // namespace p2pse
