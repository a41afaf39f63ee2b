#include "p2pse/est/interval_density.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "p2pse/net/builders.hpp"
#include "p2pse/support/stats.hpp"

namespace p2pse::est {
namespace {

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

TEST(IdentifierSpace, AssignsEveryAliveNode) {
  sim::Simulator sim = hetero_sim(500, 1);
  support::RngStream rng(2);
  const IdentifierSpace ids(sim.graph(), rng);
  EXPECT_EQ(ids.population(), 500u);
  for (const net::NodeId node : sim.graph().alive_nodes()) {
    const double id = ids.id_of(node);
    EXPECT_GE(id, 0.0);
    EXPECT_LT(id, 1.0);
  }
}

TEST(IdentifierSpace, SuccessorsAreRingOrdered) {
  sim::Simulator sim = hetero_sim(200, 3);
  support::RngStream rng(4);
  const IdentifierSpace ids(sim.graph(), rng);
  const net::NodeId node = 7;
  const auto succ = ids.successors(node, 10);
  ASSERT_EQ(succ.size(), 10u);
  double prev = 0.0;
  for (const net::NodeId s : succ) {
    const double d = ids.ring_distance(node, s);
    EXPECT_GT(d, prev);  // strictly increasing ring distance
    prev = d;
  }
}

TEST(IdentifierSpace, SuccessorsClampToPopulation) {
  sim::Simulator sim(net::Graph(5), 5);  // ids need no edges
  support::RngStream rng(6);
  const IdentifierSpace ids(sim.graph(), rng);
  EXPECT_EQ(ids.successors(0, 100).size(), 4u);
}

TEST(IntervalDensity, ValidatesConfig) {
  EXPECT_THROW(IntervalDensity({.leafset = 1}), std::invalid_argument);
  EXPECT_THROW(IntervalDensity({.leafset = 0}), std::invalid_argument);
}

TEST(IntervalDensity, UnbiasedAcrossNodes) {
  sim::Simulator sim = hetero_sim(5000, 9);
  support::RngStream rng(10);
  const IdentifierSpace ids(sim.graph(), rng);
  const IntervalDensity est({.leafset = 16});
  support::RunningStats quality;
  for (int i = 0; i < 300; ++i) {
    const net::NodeId node = sim.graph().random_alive(rng);
    const Estimate e = est.estimate_once(sim, ids, node);
    ASSERT_TRUE(e.valid);
    quality.add(support::quality_percent(e.value, 5000.0));
  }
  // (k-1)/d_k is unbiased; relative std ~ 1/sqrt(k-2) per sample, so the
  // mean of 300 samples is tight.
  EXPECT_NEAR(quality.mean(), 100.0, 6.0);
}

TEST(IntervalDensity, BiggerLeafsetIsMorePrecise) {
  sim::Simulator sim = hetero_sim(5000, 11);
  support::RngStream rng(12);
  const IdentifierSpace ids(sim.graph(), rng);
  const auto spread = [&](std::size_t k) {
    const IntervalDensity est({.leafset = k});
    support::RunningStats err;
    for (int i = 0; i < 200; ++i) {
      const Estimate e =
          est.estimate_once(sim, ids, sim.graph().random_alive(rng));
      err.add(std::abs(support::quality_percent(e.value, 5000.0) - 100.0));
    }
    return err.mean();
  };
  EXPECT_LT(spread(64), spread(4));
}

TEST(IntervalDensity, CostIsLeafsetProbes) {
  sim::Simulator sim = hetero_sim(1000, 13);
  support::RngStream rng(14);
  const IdentifierSpace ids(sim.graph(), rng);
  const IntervalDensity est({.leafset = 16});
  const Estimate e = est.estimate_once(sim, ids, 0);
  EXPECT_EQ(e.messages, 16u);
}

TEST(IntervalDensity, FarCheaperThanGenericSchemes) {
  // The paper's §I point: identifier-based estimation is nearly free — but
  // only exists on structured overlays.
  sim::Simulator sim = hetero_sim(5000, 15);
  support::RngStream rng(16);
  const IdentifierSpace ids(sim.graph(), rng);
  const IntervalDensity est({.leafset = 16});
  const Estimate e = est.estimate_once(sim, ids, 0);
  EXPECT_LT(e.messages * 100, 5000u);  // orders of magnitude below O(N)
}

TEST(IntervalDensity, DeadNodeIsInvalid) {
  sim::Simulator sim = hetero_sim(100, 17);
  support::RngStream rng(18);
  IdentifierSpace ids(sim.graph(), rng);
  sim.graph().remove_node(9);
  ids = IdentifierSpace(sim.graph(), rng);
  const IntervalDensity est({.leafset = 8});
  EXPECT_FALSE(est.estimate_once(sim, ids, 9).valid);
}

TEST(IntervalDensity, TinyPopulations) {
  sim::Simulator sim(net::Graph(2), 19);
  support::RngStream rng(20);
  const IdentifierSpace ids(sim.graph(), rng);
  const IntervalDensity est({.leafset = 8});
  const Estimate e = est.estimate_once(sim, ids, 0);
  ASSERT_TRUE(e.valid);
  EXPECT_DOUBLE_EQ(e.value, 2.0);  // sees its single successor
}

TEST(IntervalDensity, TracksChurnThroughRingUpdates) {
  sim::Simulator sim = hetero_sim(2000, 21);
  support::RngStream rng(22);
  IdentifierSpace ids(sim.graph(), rng);
  // Remove half the population, then rebuild the ring from the survivors,
  // as the estimator does when membership changed.
  std::vector<net::NodeId> victims(sim.graph().alive_nodes().begin(),
                                   sim.graph().alive_nodes().end());
  for (std::size_t i = 0; i < 1000; ++i) {
    sim.graph().remove_node(victims[i]);
  }
  ids = IdentifierSpace(sim.graph(), rng);
  const IntervalDensity est({.leafset = 16});
  support::RunningStats quality;
  for (int i = 0; i < 200; ++i) {
    const Estimate e =
        est.estimate_once(sim, ids, sim.graph().random_alive(rng));
    quality.add(support::quality_percent(e.value, 1000.0));
  }
  EXPECT_NEAR(quality.mean(), 100.0, 8.0);
}

}  // namespace
}  // namespace p2pse::est
