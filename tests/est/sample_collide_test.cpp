#include "p2pse/est/sample_collide.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "p2pse/est/registry.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/support/stats.hpp"

namespace p2pse::est {
namespace {

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

net::Graph clique(std::size_t n) {
  net::Graph g(n);
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) g.add_edge(a, b);
  }
  return g;
}

TEST(SampleCollideConfig, Validation) {
  EXPECT_THROW(SampleCollide({.timer = 0.0}), std::invalid_argument);
  EXPECT_THROW(SampleCollide({.timer = -1.0}), std::invalid_argument);
  EXPECT_THROW(SampleCollide({.timer = 1.0, .collisions = 0}),
               std::invalid_argument);
}

TEST(SampleCollideConfig, RejectsNonFiniteTimer) {
  // A NaN timer passed `timer <= 0.0` and then never expired: every walk
  // ran the full max_walk_steps. Config and spec both name the value; in a
  // spec the number reader refuses it before the config is built.
  const std::vector<std::tuple<double, const char*>> cases = {
      {std::nan(""), "nan"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
  };
  for (const auto& [timer, text] : cases) {
    SCOPED_TRACE(text);
    try {
      (void)SampleCollide({.timer = timer});
      ADD_FAILURE() << "SampleCollideConfig accepted T=" << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("SampleCollide: timer T must be finite and > 0, "
                            "got ") +
                    text);
    }
    try {
      (void)EstimatorRegistry::global().build(
          std::string("sample_collide:T=") + text);
      ADD_FAILURE() << "the registry accepted T=" << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("sample_collide: key 'T' expects a finite number, "
                            "got '") +
                    text + "'");
    }
  }
}

TEST(SampleCollideWalk, IsolatedInitiatorSendsNoMessages) {
  // An isolated node keeps the walk message and samples itself locally:
  // no walk step and no reply ever crosses the network, so Table-1-style
  // overhead counts must stay at zero in this degenerate case.
  sim::Simulator sim(net::Graph(1), 9);
  support::RngStream rng(3);
  SampleCollide sc({.timer = 10.0, .collisions = 1});
  const std::uint64_t before = sim.meter().total();
  const WalkSample ws = sc.sample(sim, 0, rng);
  EXPECT_EQ(ws.node, 0u);
  EXPECT_EQ(ws.steps, 0u);
  EXPECT_EQ(sim.meter().since(before), 0u);
}

TEST(SampleCollideWalk, TerminatesAndCountsMessages) {
  sim::Simulator sim = hetero_sim(1000, 1);
  support::RngStream rng(2);
  SampleCollide sc({.timer = 10.0, .collisions = 1});
  const std::uint64_t before = sim.meter().total();
  const WalkSample ws = sc.sample(sim, 0, rng);
  EXPECT_TRUE(sim.graph().is_alive(ws.node));
  EXPECT_GT(ws.steps, 0u);
  // steps walk messages + 1 sample reply.
  EXPECT_EQ(sim.meter().since(before), ws.steps + 1);
}

TEST(SampleCollideWalk, LengthScalesWithTimer) {
  sim::Simulator sim = hetero_sim(2000, 3);
  support::RngStream rng(4);
  const auto mean_steps = [&](double timer) {
    SampleCollide sc({.timer = timer, .collisions = 1});
    support::RunningStats steps;
    for (int i = 0; i < 300; ++i) {
      steps.add(static_cast<double>(sc.sample(sim, 0, rng).steps));
    }
    return steps.mean();
  };
  const double short_walk = mean_steps(1.0);
  const double long_walk = mean_steps(10.0);
  // Expected steps ~ T * mean degree: the ratio should be near 10.
  EXPECT_GT(long_walk, 5.0 * short_walk);
  // Expected length ~ T * avg_degree (~7.2): sanity band.
  EXPECT_NEAR(long_walk, 72.0, 25.0);
}

TEST(SampleCollideWalk, IsolatedInitiatorSamplesItself) {
  net::Graph g(3);  // no edges at all
  sim::Simulator sim(std::move(g), 5);
  support::RngStream rng(6);
  SampleCollide sc({.timer = 10.0, .collisions = 1});
  const WalkSample ws = sc.sample(sim, 1, rng);
  EXPECT_EQ(ws.node, 1u);
  EXPECT_EQ(ws.steps, 0u);
}

TEST(SampleCollideWalk, UniformOnCliqueChiSquare) {
  // On a clique every node has equal degree; the sampler must be uniform.
  sim::Simulator sim(clique(50), 7);
  support::RngStream rng(8);
  SampleCollide sc({.timer = 10.0, .collisions = 1});
  std::vector<std::uint64_t> counts(50, 0);
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[sc.sample(sim, 0, rng).node];
  // df = 49; P(chi2 > 90) < 2e-4.
  EXPECT_LT(support::chi_square_uniform(counts), 90.0);
}

TEST(SampleCollideWalk, NearUniformOnHeterogeneousGraphWithLargeT) {
  // The estimator's asymptotic unbiasedness claim: with T=10 the empirical
  // distribution over a 300-node heterogeneous graph is close to uniform.
  sim::Simulator sim = hetero_sim(300, 9);
  support::RngStream rng(10);
  SampleCollide sc({.timer = 10.0, .collisions = 1});
  std::vector<std::uint64_t> counts(sim.graph().slot_count(), 0);
  constexpr int kSamples = 150000;
  for (int i = 0; i < kSamples; ++i) ++counts[sc.sample(sim, 0, rng).node];
  const double chi2 = support::chi_square_uniform(counts);
  const double df = static_cast<double>(sim.graph().size() - 1);
  // chi2/df close to 1 for a uniform sampler; allow generous slack.
  EXPECT_LT(chi2 / df, 1.35);
}

TEST(SampleCollideWalk, SmallTIsBiasedTowardHighDegree) {
  // Control experiment for the one above: with a tiny timer the walk barely
  // moves, so the distribution must be visibly non-uniform.
  sim::Simulator sim = hetero_sim(300, 11);
  support::RngStream rng(12);
  SampleCollide sc({.timer = 0.2, .collisions = 1});
  std::vector<std::uint64_t> counts(sim.graph().slot_count(), 0);
  constexpr int kSamples = 150000;
  for (int i = 0; i < kSamples; ++i) ++counts[sc.sample(sim, 0, rng).node];
  const double chi2 = support::chi_square_uniform(counts);
  const double df = static_cast<double>(sim.graph().size() - 1);
  EXPECT_GT(chi2 / df, 2.0);
}

TEST(SampleCollideEstimate, QuadraticFormula) {
  // With forced sample streams the formula is C^2/(2l); verify through the
  // public interface on a tiny deterministic case: a single-node "graph"
  // samples itself forever, so l collisions take exactly l+1 samples.
  net::Graph g(1);
  sim::Simulator sim(std::move(g), 13);
  support::RngStream rng(14);
  SampleCollide sc({.timer = 10.0, .collisions = 4});
  const Estimate e = sc.estimate_point(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  // 5 samples, 4 collisions: 25 / 8.
  EXPECT_DOUBLE_EQ(e.value, 25.0 / 8.0);
}

TEST(SampleCollideEstimate, AccurateOnMidSizeGraph) {
  sim::Simulator sim = hetero_sim(20000, 15);
  support::RngStream rng(16);
  SampleCollide sc({.timer = 10.0, .collisions = 200});
  support::RunningStats quality;
  for (int i = 0; i < 5; ++i) {
    const Estimate e = sc.estimate_point(sim, 0, rng);
    ASSERT_TRUE(e.valid);
    quality.add(support::quality_percent(e.value, 20000.0));
  }
  // Paper: oneShot within ~10%, occasional 20% peaks. Mean of 5 within 15%.
  EXPECT_NEAR(quality.mean(), 100.0, 15.0);
}

TEST(SampleCollideEstimate, CostMatchesSqrtLaw) {
  // C ~ sqrt(2 l N) samples, each costing ~T*avg_degree+1 messages.
  sim::Simulator sim = hetero_sim(10000, 17);
  support::RngStream rng(18);
  SampleCollide sc({.timer = 10.0, .collisions = 50});
  const Estimate e = sc.estimate_point(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  const double expected_samples = std::sqrt(2.0 * 50 * 10000.0);
  const double expected_msgs = expected_samples * (10.0 * 7.2 + 1.0);
  EXPECT_GT(static_cast<double>(e.messages), 0.4 * expected_msgs);
  EXPECT_LT(static_cast<double>(e.messages), 2.5 * expected_msgs);
}

TEST(SampleCollideEstimate, DeadInitiatorIsInvalid) {
  sim::Simulator sim = hetero_sim(100, 19);
  sim.graph().remove_node(7);
  support::RngStream rng(20);
  SampleCollide sc({.timer = 10.0, .collisions = 5});
  const Estimate e = sc.estimate_point(sim, 7, rng);
  EXPECT_FALSE(e.valid);
}

TEST(SampleCollideEstimate, SafetyBoundProducesInvalid) {
  sim::Simulator sim = hetero_sim(5000, 21);
  support::RngStream rng(22);
  SampleCollideConfig config{.timer = 10.0, .collisions = 200};
  config.max_samples = 10;  // far too few to reach 200 collisions
  SampleCollide sc(config);
  const Estimate e = sc.estimate_point(sim, 0, rng);
  EXPECT_FALSE(e.valid);
}

TEST(SampleCollideMle, SolvesKnownEquation) {
  // sum_{d=0}^{D-1} d/(N-d) = l. For D=2, l=1: 1/(N-1) = 1 -> N = 2.
  EXPECT_NEAR(SampleCollide::solve_mle(2, 1), 2.0, 1e-3);
  // For D=3, l=1: 1/(N-1) + 2/(N-2) = 1 -> N^2 - 6N + 6 = 0 -> N = 3+sqrt(3).
  EXPECT_NEAR(SampleCollide::solve_mle(3, 1), 3.0 + std::sqrt(3.0), 1e-3);
}

TEST(SampleCollideMle, BoundaryWhenCollisionsDominate) {
  // Tiny distinct count with huge l: the MLE pins to the boundary N = D.
  EXPECT_NEAR(SampleCollide::solve_mle(5, 200), 5.0, 0.2);
}

TEST(SampleCollideMle, DegenerateInputs) {
  EXPECT_EQ(SampleCollide::solve_mle(0, 5), 0.0);
  EXPECT_EQ(SampleCollide::solve_mle(5, 0), 0.0);
  EXPECT_NEAR(SampleCollide::solve_mle(1, 3), 1.0, 0.1);
}

TEST(SampleCollideMle, AgreesWithQuadraticInTypicalRegime) {
  // When C << N, the MLE and the quadratic estimator coincide to first
  // order. D = C - l with C = sqrt(2 l N).
  const std::uint64_t l = 200;
  const double n = 100000.0;
  const auto c = static_cast<std::uint64_t>(std::sqrt(2.0 * l * n));
  const double quadratic =
      static_cast<double>(c) * static_cast<double>(c) / (2.0 * l);
  const double mle = SampleCollide::solve_mle(c - l, l);
  EXPECT_NEAR(mle / quadratic, 1.0, 0.05);
}

TEST(SampleCollideEstimate, MleVariantRunsEndToEnd) {
  sim::Simulator sim = hetero_sim(5000, 23);
  support::RngStream rng(24);
  SampleCollide sc({.timer = 10.0,
                          .collisions = 50,
                          .estimator = CollisionEstimator::kMaximumLikelihood});
  const Estimate e = sc.estimate_point(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(support::quality_percent(e.value, 5000.0), 100.0, 35.0);
}

// Property sweep: estimate quality envelope across graph size, l, and seeds.
using AccuracyCase = std::tuple<std::size_t, std::uint32_t, std::uint64_t>;

class SampleCollideAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(SampleCollideAccuracy, WithinEnvelope) {
  const auto& [nodes, l, seed] = GetParam();
  sim::Simulator sim = hetero_sim(nodes, seed);
  support::RngStream rng(seed ^ 0x5555);
  SampleCollide sc({.timer = 10.0, .collisions = l});
  support::RunningStats quality;
  for (int i = 0; i < 3; ++i) {
    const Estimate e = sc.estimate_point(sim, 0, rng);
    ASSERT_TRUE(e.valid);
    quality.add(support::quality_percent(e.value, static_cast<double>(nodes)));
  }
  // Relative std error ~ sqrt(1/(2l)): ~22% for l=10, ~7% for l=100.
  const double tolerance = l >= 100 ? 25.0 : 60.0;
  EXPECT_NEAR(quality.mean(), 100.0, tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleCollideAccuracy,
    ::testing::Combine(::testing::Values(std::size_t{2000}, std::size_t{10000}),
                       ::testing::Values(std::uint32_t{10}, std::uint32_t{100}),
                       ::testing::Values(std::uint64_t{3}, std::uint64_t{41},
                                         std::uint64_t{97})),
    [](const ::testing::TestParamInfo<AccuracyCase>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_l" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace p2pse::est
