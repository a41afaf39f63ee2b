#include "p2pse/est/walk.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "p2pse/net/builders.hpp"
#include "p2pse/support/stats.hpp"

#include "net/graph_oracles.hpp"

namespace p2pse::est {
namespace {

using net::build_heterogeneous_random;
using net::Graph;
using net::kInvalidNode;
using net::NodeId;

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

Graph star(std::size_t leaves) {
  Graph g(leaves + 1);
  for (NodeId i = 1; i <= leaves; ++i) g.add_edge(0, i);
  return g;
}

TEST(SimpleWalk, StepMovesToNeighborAndCountsMessage) {
  sim::Simulator sim = hetero_sim(100, 1);
  support::RngStream rng(2);
  const std::uint64_t before = sim.meter().total();
  const NodeId next = hop<HopDelivery::kReliable>(sim, 0, rng).next;
  EXPECT_TRUE(net::oracle::has_edge(sim.graph(), 0, next));
  EXPECT_EQ(sim.meter().since(before), 1u);
}

TEST(SimpleWalk, StuckOnIsolatedNode) {
  Graph g(2);
  sim::Simulator sim(std::move(g), 3);
  support::RngStream rng(4);
  EXPECT_EQ(hop<HopDelivery::kReliable>(sim, 0, rng).next, kInvalidNode);
  EXPECT_EQ(sim.meter().total(), 0u);
  EXPECT_EQ(simple_walk(sim, 0, 100, rng), 0u);  // stays put
}

TEST(SimpleWalk, EndpointDistributionIsDegreeBiased) {
  // On a star, the simple walk alternates hub/leaf: after an even number of
  // steps from the hub it is back at the hub — maximal degree bias.
  sim::Simulator sim(star(10), 5);
  support::RngStream rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(simple_walk(sim, 0, 10, rng), 0u);
  }
}

TEST(MetropolisHastings, StepIsLazyButValid) {
  sim::Simulator sim = hetero_sim(500, 7);
  support::RngStream rng(8);
  for (int i = 0; i < 200; ++i) {
    const NodeId from = sim.graph().random_alive(rng);
    const NodeId to = metropolis_hastings_step(sim, from, rng);
    if (sim.graph().degree(from) == 0) {
      EXPECT_EQ(to, kInvalidNode);
    } else {
      EXPECT_TRUE(to == from || net::oracle::has_edge(sim.graph(), from, to));
    }
  }
}

TEST(MetropolisHastings, EndpointDistributionIsNearUniform) {
  // The MH walk corrects the degree bias: on the star graph the hub must NOT
  // dominate. Stationary distribution is uniform over all 11 nodes.
  sim::Simulator sim(star(10), 9);
  support::RngStream rng(10);
  std::vector<std::uint64_t> counts(11, 0);
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[metropolis_hastings_walk(sim, 0, 40, rng)];
  }
  // Hub frequency should be ~1/11, far from the simple walk's ~1.
  EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, 1.0 / 11.0, 0.03);
  const double chi2 = support::chi_square_uniform(counts);
  EXPECT_LT(chi2 / 10.0, 3.0);
}

TEST(MetropolisHastings, UniformOnHeterogeneousGraph) {
  sim::Simulator sim = hetero_sim(200, 11);
  support::RngStream rng(12);
  std::vector<std::uint64_t> counts(sim.graph().slot_count(), 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[metropolis_hastings_walk(sim, 0, 120, rng)];
  }
  const double df = static_cast<double>(sim.graph().size() - 1);
  EXPECT_LT(support::chi_square_uniform(counts) / df, 1.4);
}

TEST(MetropolisHastings, RejectionsStillCostMessages) {
  sim::Simulator sim(star(10), 13);
  support::RngStream rng(14);
  const std::uint64_t before = sim.meter().total();
  (void)metropolis_hastings_walk(sim, 1, 50, rng);  // from a leaf
  EXPECT_EQ(sim.meter().since(before), 50u);  // every proposal is a probe
}

TEST(SimpleWalk, HopsGoThroughTheChannel) {
  // Every hop is a channel send: the ideal channel's i.i.d. counter and the
  // recorder's per-node load see it, not only the message meter.
  sim::Simulator sim = hetero_sim(200, 15);
  sim.enable_recorder();
  support::RngStream rng(16);
  (void)simple_walk(sim, 0, 25, rng);
  (void)metropolis_hastings_walk(sim, 0, 25, rng);
  EXPECT_EQ(sim.meter().total(), 50u);
  EXPECT_EQ(sim.channel().counters().sends_iid, 50u);
}

TEST(WalkEngine, FixedLengthSampleSendsOneReplyAndRecordsItsLength) {
  sim::Simulator sim = hetero_sim(300, 17);
  sim.enable_recorder();
  support::RngStream rng(18);
  const WalkSample s = walk_to_sample<HopDelivery::kReliable>(
      sim, 0, 30, rng, kFixedLength);
  EXPECT_FALSE(s.lost);
  EXPECT_EQ(s.steps, 30u);
  EXPECT_TRUE(sim.graph().is_alive(s.node));
  EXPECT_EQ(sim.meter().of(sim::MessageClass::kWalkStep), 30u);
  EXPECT_EQ(sim.meter().of(sim::MessageClass::kSampleReply), 1u);
  EXPECT_EQ(sim.recorder()->walk_hops().count(), 1u);
}

TEST(WalkEngine, StopRuleIsAskedAtEachReachedNode) {
  sim::Simulator sim = hetero_sim(300, 19);
  support::RngStream rng(20);
  std::vector<NodeId> reached;
  const WalkSample s = walk<HopDelivery::kArq>(
      sim, 0, 1000, rng, [&](NodeId at) {
        reached.push_back(at);
        return reached.size() == 4;
      });
  ASSERT_EQ(reached.size(), 4u);
  EXPECT_EQ(s.steps, 4u);
  EXPECT_EQ(s.node, reached.back());
  EXPECT_EQ(sim.meter().total(), 4u);  // a bare walk sends no reply
}

TEST(WalkEngine, LostHopEndsTheWalkWithoutANode) {
  sim::Simulator sim = hetero_sim(300, 21);
  sim.set_network(sim::NetworkConfig::parse("net:loss=1,retries=0"));
  support::RngStream rng(22);
  const WalkSample s = walk_to_sample<HopDelivery::kArq>(
      sim, 0, 30, rng, kFixedLength);
  EXPECT_TRUE(s.lost);
  EXPECT_EQ(s.node, kInvalidNode);
  EXPECT_EQ(s.steps, 0u);
  EXPECT_EQ(sim.meter().total(), 1u);  // the lost hop, and no reply
}

TEST(WalkEngine, CollideCountsSamplesCollisionsAndChargesLostWalks) {
  sim::Simulator sim(Graph(4), 23);
  sim.set_network(sim::NetworkConfig::parse("net:timeout=7"));
  // Scripted sampler: node 1, a lost walk, node 2, node 1 (a collision).
  const std::vector<WalkSample> script = {
      {.node = 1, .steps = 3, .elapsed = 0.5},
      {.steps = 1, .lost = true, .elapsed = 100.0},
      {.node = 2, .steps = 2, .elapsed = 0.25},
      {.node = 1, .steps = 4, .elapsed = 1.0},
  };
  std::size_t next = 0;
  const CollisionRun run =
      collide(sim, 1, 100, [&] { return script.at(next++); });
  EXPECT_EQ(run.attempts, 4u);
  EXPECT_EQ(run.samples, 3u);
  EXPECT_EQ(run.distinct, 2u);
  EXPECT_EQ(run.collisions, 1u);
  EXPECT_TRUE(run.complete);
  // The lost walk costs the initiator its timeout, not the walk's transit.
  EXPECT_DOUBLE_EQ(run.delay, 0.5 + 7.0 + 0.25 + 1.0);
  const Estimate e = run.estimate(2.0);
  EXPECT_TRUE(e.valid);
  EXPECT_DOUBLE_EQ(e.time, 2.0);
  EXPECT_DOUBLE_EQ(birthday_estimate(run.samples, 1), 4.5);
}

}  // namespace
}  // namespace p2pse::est
