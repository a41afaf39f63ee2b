// Parameter-grid property sweeps over the two tunable candidates: the
// estimators must stay sane over the whole configuration space the paper
// discusses (S&C's T x l trade-off, HopsSampling's spread knobs).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/support/stats.hpp"

namespace p2pse::est {
namespace {

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

// ---- Sample&Collide T x l grid ---------------------------------------------
using ScGrid = std::tuple<double, std::uint32_t>;

class SampleCollideGrid : public ::testing::TestWithParam<ScGrid> {};

TEST_P(SampleCollideGrid, EstimateSaneAndCostMonotoneInT) {
  const auto& [timer, l] = GetParam();
  sim::Simulator sim = hetero_sim(4000, 17);
  support::RngStream rng(18);
  SampleCollide sc({.timer = timer, .collisions = l});
  support::RunningStats quality, msgs;
  for (int i = 0; i < 3; ++i) {
    const Estimate e = sc.estimate_point(sim, 0, rng);
    ASSERT_TRUE(e.valid);
    quality.add(support::quality_percent(e.value, 4000.0));
    msgs.add(static_cast<double>(e.messages));
  }
  // Even badly-tuned configurations stay within an order of magnitude; the
  // well-tuned ones (T >= 5) are tight.
  if (timer >= 5.0 && l >= 50) {
    EXPECT_NEAR(quality.mean(), 100.0, 30.0);
  } else {
    EXPECT_GT(quality.mean(), 15.0);
    EXPECT_LT(quality.mean(), 300.0);
  }
  // Cost ~ sqrt(2 l N) * (T * avg_deg + 1): sanity band.
  const double per_sample = timer * 7.2 + 1.0;
  const double expected = std::sqrt(2.0 * l * 4000.0) * per_sample;
  EXPECT_GT(msgs.mean(), 0.3 * expected);
  EXPECT_LT(msgs.mean(), 3.0 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SampleCollideGrid,
    ::testing::Combine(::testing::Values(1.0, 5.0, 10.0),
                       ::testing::Values(std::uint32_t{10}, std::uint32_t{50},
                                         std::uint32_t{200})),
    [](const ::testing::TestParamInfo<ScGrid>& info) {
      std::string name = "T";
      name.append(std::to_string(static_cast<int>(std::get<0>(info.param))))
          .append("_l")
          .append(std::to_string(std::get<1>(info.param)));
      return name;
    });

// ---- HopsSampling spread-knob grid -----------------------------------------
using HsGrid = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class HopsSamplingGrid : public ::testing::TestWithParam<HsGrid> {};

TEST_P(HopsSamplingGrid, CoverageGrowsWithSpreadAggressiveness) {
  const auto& [gossip_to, gossip_until, min_hops] = GetParam();
  sim::Simulator sim = hetero_sim(6000, 19);
  support::RngStream rng(20);
  HopsSamplingConfig config;
  config.gossip_to = gossip_to;
  config.gossip_until = gossip_until;
  config.min_hops_reporting = min_hops;
  const HopsSampling hs(config);
  support::RunningStats coverage, quality;
  for (int i = 0; i < 5; ++i) {
    const HopsSamplingResult r = hs.run_once(sim, 0, rng);
    ASSERT_TRUE(r.estimate.valid);
    coverage.add(static_cast<double>(r.reached) / 6000.0);
    quality.add(support::quality_percent(r.estimate.value, 6000.0));
  }
  // Fanout >= 3 with gossipUntil >= 2 floods essentially everyone.
  if (gossip_to >= 3 && gossip_until >= 2) {
    EXPECT_GT(coverage.mean(), 0.95);
  } else {
    EXPECT_GT(coverage.mean(), 0.55);
  }
  // Estimates never collapse or explode across the grid.
  EXPECT_GT(quality.mean(), 20.0);
  EXPECT_LT(quality.mean(), 220.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HopsSamplingGrid,
    ::testing::Combine(::testing::Values(std::uint32_t{2}, std::uint32_t{3}),
                       ::testing::Values(std::uint32_t{1}, std::uint32_t{2}),
                       ::testing::Values(std::uint32_t{3}, std::uint32_t{5},
                                         std::uint32_t{8})),
    [](const ::testing::TestParamInfo<HsGrid>& info) {
      return "to" + std::to_string(std::get<0>(info.param)) + "_until" +
             std::to_string(std::get<1>(info.param)) + "_mhr" +
             std::to_string(std::get<2>(info.param));
    });

// Coverage monotonicity in gossipTo, directly (not via the grid bands).
TEST(HopsSamplingMonotonicity, FanoutIncreasesCoverage) {
  sim::Simulator sim = hetero_sim(6000, 21);
  support::RngStream rng(22);
  double previous = 0.0;
  for (const std::uint32_t fanout : {1u, 2u, 4u}) {
    HopsSamplingConfig config;
    config.gossip_to = fanout;
    const HopsSampling hs(config);
    support::RunningStats coverage;
    for (int i = 0; i < 5; ++i) {
      coverage.add(
          static_cast<double>(hs.run_once(sim, 0, rng).reached) / 6000.0);
    }
    EXPECT_GT(coverage.mean(), previous);
    previous = coverage.mean();
  }
}

}  // namespace
}  // namespace p2pse::est
