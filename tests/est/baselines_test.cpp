// Tests for the two baseline estimators: RandomTour and InvertedBirthday.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "p2pse/est/inverted_birthday.hpp"
#include "p2pse/est/random_tour.hpp"
#include "p2pse/est/registry.hpp"
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

net::Graph ring(std::size_t n) {
  net::Graph g(n);
  for (net::NodeId i = 0; i < n; ++i) {
    g.add_edge(i, static_cast<net::NodeId>((i + 1) % n));
  }
  return g;
}

TEST(RandomTour, ExactOnTwoNodeGraph) {
  net::Graph g(2);
  g.add_edge(0, 1);
  sim::Simulator sim(std::move(g), 1);
  support::RngStream rng(2);
  RandomTour tour;
  const Estimate e = tour.estimate_point(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  // Tour: 0 -> 1 -> 0. Phi = 1/1 + 1/1 = 2, deg(0)=1 -> N-hat = 2. Exact.
  EXPECT_DOUBLE_EQ(e.value, 2.0);
  EXPECT_EQ(e.messages, 2u);
}

TEST(RandomTour, UnbiasedOnRing) {
  // On a ring all degrees are 2; E[N-hat] = N. Average many tours.
  sim::Simulator sim(ring(50), 3);
  support::RngStream rng(4);
  RandomTour tour;
  support::RunningStats estimates;
  for (int i = 0; i < 3000; ++i) {
    const Estimate e = tour.estimate_point(sim, 0, rng);
    ASSERT_TRUE(e.valid);
    estimates.add(e.value);
  }
  EXPECT_NEAR(estimates.mean(), 50.0, 5.0);
}

TEST(RandomTour, UnbiasedOnHeterogeneousGraph) {
  sim::Simulator sim = hetero_sim(500, 5);
  support::RngStream rng(6);
  RandomTour tour;
  support::RunningStats estimates;
  for (int i = 0; i < 4000; ++i) {
    const Estimate e = tour.estimate_point(sim, 0, rng);
    if (e.valid) estimates.add(e.value);
  }
  EXPECT_NEAR(estimates.mean(), 500.0, 60.0);
}

TEST(RandomTour, CostScalesWithEdgesOverDegree) {
  // E[tour length] = 2|E|/deg(initiator).
  sim::Simulator sim = hetero_sim(2000, 7);
  support::RngStream rng(8);
  RandomTour tour;
  support::RunningStats steps;
  const net::NodeId initiator = 0;
  for (int i = 0; i < 2000; ++i) {
    const Estimate e = tour.estimate_point(sim, initiator, rng);
    if (e.valid) steps.add(static_cast<double>(e.messages));
  }
  const double expected = 2.0 * static_cast<double>(sim.graph().edge_count()) /
                          static_cast<double>(sim.graph().degree(initiator));
  EXPECT_NEAR(steps.mean(), expected, 0.25 * expected);
}

TEST(RandomTour, InvalidForDeadOrIsolatedInitiator) {
  sim::Simulator sim = hetero_sim(100, 9);
  support::RngStream rng(10);
  RandomTour tour;
  sim.graph().remove_node(5);
  EXPECT_FALSE(tour.estimate_point(sim, 5, rng).valid);
  net::Graph lonely(1);
  sim::Simulator sim2(std::move(lonely), 11);
  EXPECT_FALSE(tour.estimate_point(sim2, 0, rng).valid);
}

TEST(RandomTour, MaxStepsBoundProducesInvalid) {
  sim::Simulator sim = hetero_sim(5000, 12);
  support::RngStream rng(13);
  RandomTour tour({.max_steps = 3});  // absurdly small
  int valid = 0;
  for (int i = 0; i < 50; ++i) valid += tour.estimate_point(sim, 0, rng).valid;
  EXPECT_LT(valid, 50);  // most tours cannot return within 3 hops
}

TEST(RandomTour, CostGrowsLinearlyWhileSampleCollideGrowsAsSqrt) {
  // The reason the paper picked Sample&Collide (§II): Random Tour's per-run
  // cost is Theta(|E|/deg) = Theta(N), Sample&Collide's is Theta(sqrt(N)).
  // Quadrupling N must roughly quadruple the tour cost but only ~double the
  // Sample&Collide cost.
  const auto mean_cost = [](std::size_t n, auto&& estimator,
                            std::uint64_t seed) {
    sim::Simulator sim = hetero_sim(n, seed);
    support::RngStream rng(seed ^ 0x9999);
    support::RunningStats cost;
    for (int i = 0; i < 150; ++i) {
      const Estimate e = estimator(sim, rng);
      if (e.valid) cost.add(static_cast<double>(e.messages));
    }
    return cost.mean();
  };
  RandomTour tour;
  const auto run_tour = [&tour](sim::Simulator& s, support::RngStream& r) {
    return tour.estimate_point(s, 0, r);
  };
  SampleCollide sc({.timer = 10.0, .collisions = 1});
  const auto run_sc = [&sc](sim::Simulator& s, support::RngStream& r) {
    return sc.estimate_point(s, 0, r);
  };
  const double tour_ratio =
      mean_cost(8000, run_tour, 14) / mean_cost(2000, run_tour, 14);
  const double sc_ratio =
      mean_cost(8000, run_sc, 14) / mean_cost(2000, run_sc, 14);
  EXPECT_GT(tour_ratio, 2.4);            // ~4x (linear), modulo degree noise
  EXPECT_LT(sc_ratio, 3.0);              // ~2x (sqrt)
  EXPECT_GT(tour_ratio, 1.2 * sc_ratio); // the scaling gap itself
}

TEST(InvertedBirthday, ConfigValidation) {
  EXPECT_THROW(InvertedBirthday({.walk_length = 10, .collisions = 0}),
               std::invalid_argument);
}

TEST(InvertedBirthday, RejectsZeroWalkLength) {
  // A zero-hop walk samples its initiator every time, so the first two
  // samples collide: on a 2000-node overlay it estimated 2 and sent no
  // message. Config and spec both get the constructor's message.
  const std::string expected = "InvertedBirthday: walk_length must be >= 1";
  try {
    (void)InvertedBirthday({.walk_length = 0, .collisions = 1});
    ADD_FAILURE() << "InvertedBirthdayConfig accepted walk_length=0";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), expected);
  }
  try {
    (void)EstimatorRegistry::global().build("inverted_birthday:walk_length=0");
    ADD_FAILURE() << "the registry accepted walk_length=0";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), expected);
  }
}

TEST(InvertedBirthday, FirstCollisionFormula) {
  // Single-node graph: first sample is the node, second collides -> C=2,
  // N-hat = 4/2 = 2 (the classic estimator's small-N bias, exposed plainly).
  net::Graph g(1);
  sim::Simulator sim(std::move(g), 16);
  support::RngStream rng(17);
  InvertedBirthday ibp({.walk_length = 5, .collisions = 1});
  const Estimate e = ibp.estimate_point(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_DOUBLE_EQ(e.value, 2.0);
}

TEST(InvertedBirthday, ReasonableOnNearHomogeneousGraph) {
  // With near-equal degrees the biased sampler is nearly uniform, so the
  // estimate lands in the right ballpark (averaged over runs).
  support::RngStream build(18);
  sim::Simulator sim(net::build_homogeneous_random({3000, 7}, build), 19);
  support::RngStream rng(20);
  InvertedBirthday ibp({.walk_length = 50, .collisions = 20});
  support::RunningStats quality;
  for (int i = 0; i < 10; ++i) {
    const Estimate e = ibp.estimate_point(sim, 0, rng);
    ASSERT_TRUE(e.valid);
    quality.add(support::quality_percent(e.value, 3000.0));
  }
  EXPECT_NEAR(quality.mean(), 100.0, 35.0);
}

TEST(InvertedBirthday, UnderEstimatesOnScaleFreeGraph) {
  // Degree-biased sampling concentrates on hubs: collisions arrive early and
  // the estimate deflates — the failure mode Sample&Collide fixes.
  support::RngStream build(21);
  sim::Simulator sim(net::build_barabasi_albert({3000, 3}, build), 22);
  support::RngStream rng(23);
  InvertedBirthday ibp({.walk_length = 50, .collisions = 20});
  support::RunningStats quality;
  for (int i = 0; i < 10; ++i) {
    const Estimate e = ibp.estimate_point(sim, 0, rng);
    ASSERT_TRUE(e.valid);
    quality.add(support::quality_percent(e.value, 3000.0));
  }
  EXPECT_LT(quality.mean(), 80.0);
}

TEST(InvertedBirthday, SampleCollideBeatsItOnScaleFree) {
  support::RngStream build(24);
  sim::Simulator sim(net::build_barabasi_albert({3000, 3}, build), 25);
  support::RngStream rng_a(26), rng_b(26);
  InvertedBirthday ibp({.walk_length = 50, .collisions = 20});
  SampleCollide sc({.timer = 10.0, .collisions = 20});
  support::RunningStats ibp_err, sc_err;
  for (int i = 0; i < 10; ++i) {
    ibp_err.add(std::abs(support::quality_percent(
                    ibp.estimate_point(sim, 0, rng_a).value, 3000.0) -
                100.0));
    sc_err.add(std::abs(support::quality_percent(
                   sc.estimate_point(sim, 0, rng_b).value, 3000.0) -
               100.0));
  }
  EXPECT_LT(sc_err.mean(), ibp_err.mean());
}

TEST(InvertedBirthday, DeadInitiatorInvalid) {
  sim::Simulator sim = hetero_sim(100, 27);
  sim.graph().remove_node(9);
  support::RngStream rng(28);
  InvertedBirthday ibp({});
  EXPECT_FALSE(ibp.estimate_point(sim, 9, rng).valid);
}

}  // namespace
}  // namespace p2pse::est
