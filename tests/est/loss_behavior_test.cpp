// Per-protocol behavior on a lossy channel: termination, the timeout/retry
// machinery, mass conservation, and the direction each estimator degrades.
#include <gtest/gtest.h>

#include <cmath>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/aggregation_suite.hpp"
#include "p2pse/est/flat_polling.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/inverted_birthday.hpp"
#include "p2pse/est/random_tour.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/sim/simulator.hpp"

#include "est/aggregation_oracles.hpp"

namespace p2pse::est {
namespace {

using support::RngStream;

sim::Simulator make_sim(std::size_t nodes, std::uint64_t seed,
                        double loss = 0.0, double latency = 0.0) {
  RngStream graph_rng(seed);
  sim::Simulator sim(
      net::build_heterogeneous_random({nodes, 1, 10}, graph_rng), seed + 1);
  sim::NetworkConfig config;
  config.loss = loss;
  config.latency = sim::LatencyModel::constant(latency);
  sim.set_network(config);
  return sim;
}

TEST(LossBehavior, SampleCollideTerminatesAndEstimatesUnderHeavyLoss) {
  sim::Simulator sim = make_sim(300, 11, /*loss=*/0.2);
  SampleCollide sc({.timer = 4.0, .collisions = 20});
  RngStream rng(5);
  const Estimate e = sc.estimate_point(sim, 0, rng);
  ASSERT_TRUE(e.valid);
  EXPECT_GT(e.value, 0.0);
  // Lost walks and replies were retried/relaunched: some timeout waits must
  // show up in the measured delay even with zero per-hop latency.
  EXPECT_GT(e.delay, 0.0);
}

TEST(LossBehavior, SampleCollideExplicitIdealChannelIsBitIdentical) {
  sim::Simulator reliable = make_sim(300, 11);
  sim::Simulator routed = make_sim(300, 11, /*loss=*/0.0, /*latency=*/0.0);
  SampleCollide sc({.timer = 4.0, .collisions = 20});
  RngStream rng_a(5), rng_b(5);
  const Estimate a = sc.estimate_point(reliable, 0, rng_a);
  const Estimate b = sc.estimate_point(routed, 0, rng_b);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(b.delay, 0.0);
}

TEST(LossBehavior, SampleCollideLossInflatesMessageCost) {
  const SampleCollideConfig config{.timer = 4.0, .collisions = 20};
  sim::Simulator reliable = make_sim(300, 11);
  sim::Simulator lossy = make_sim(300, 11, /*loss=*/0.2);
  SampleCollide sc(config);
  RngStream rng_a(5), rng_b(5);
  const std::uint64_t msgs_reliable =
      sc.estimate_point(reliable, 0, rng_a).messages;
  const std::uint64_t msgs_lossy = sc.estimate_point(lossy, 0, rng_b).messages;
  EXPECT_GT(msgs_lossy, msgs_reliable);
}

TEST(LossBehavior, HopsSamplingCoverageAndEstimateShrinkWithLoss) {
  const HopsSampling hs({});
  double reached_avg[2] = {0.0, 0.0};
  double estimate_avg[2] = {0.0, 0.0};
  const double losses[2] = {0.0, 0.2};
  const int runs = 8;
  for (int variant = 0; variant < 2; ++variant) {
    sim::Simulator sim = make_sim(2000, 13, losses[variant]);
    RngStream rng(5);
    for (int i = 0; i < runs; ++i) {
      const HopsSamplingResult r = hs.run_once(sim, 0, rng);
      reached_avg[variant] += static_cast<double>(r.reached) / runs;
      estimate_avg[variant] += r.estimate.value / runs;
    }
  }
  EXPECT_LT(reached_avg[1], reached_avg[0]);
  EXPECT_LT(estimate_avg[1], estimate_avg[0]);
}

TEST(LossBehavior, HopsSamplingMeasuresSpreadDelayUnderLatency) {
  const HopsSampling hs({});
  sim::Simulator sim = make_sim(2000, 13, /*loss=*/0.0, /*latency=*/2.0);
  RngStream rng(5);
  const HopsSamplingResult r = hs.run_once(sim, 0, rng);
  // Parallel composition: delay tracks spread depth (rounds), not message
  // count — it must be at least one hop and far below messages * latency.
  EXPECT_GT(r.estimate.delay, 0.0);
  EXPECT_GE(r.estimate.delay, 2.0 * r.spread_rounds * 0.99);
  EXPECT_LT(r.estimate.delay,
            2.0 * static_cast<double>(r.estimate.messages));
  EXPECT_DOUBLE_EQ(r.estimate.delay, r.spread_delay + 2.0);
}

TEST(LossBehavior, FlatPollingRepliesShrinkWithLoss) {
  const FlatPolling poll({.reply_probability = 0.25});
  sim::Simulator reliable = make_sim(2000, 17);
  sim::Simulator lossy = make_sim(2000, 17, /*loss=*/0.2);
  RngStream rng_a(5), rng_b(5);
  double est_reliable = 0.0, est_lossy = 0.0;
  const int runs = 8;
  for (int i = 0; i < runs; ++i) {
    est_reliable += poll.run_once(reliable, 0, rng_a).estimate.value / runs;
    est_lossy += poll.run_once(lossy, 0, rng_b).estimate.value / runs;
  }
  EXPECT_LT(est_lossy, est_reliable);
}

TEST(LossBehavior, RandomTourEstimateSurvivesLossViaReliableHops) {
  RandomTour tour;
  sim::Simulator reliable = make_sim(500, 19);
  sim::Simulator lossy = make_sim(500, 19, /*loss=*/0.3);
  RngStream rng_a(5), rng_b(5);
  const Estimate a = tour.estimate_point(reliable, 0, rng_a);
  const Estimate b = tour.estimate_point(lossy, 0, rng_b);
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  // Hop-reliable forwarding: the identical tour and estimate, at a higher
  // message cost (retransmissions) and positive delay (timeout waits).
  EXPECT_DOUBLE_EQ(b.value, a.value);
  EXPECT_GT(b.messages, a.messages);
  EXPECT_GT(b.delay, 0.0);
}

TEST(LossBehavior, InvertedBirthdaySkipsSamplesWithLostReplies) {
  // loss=1 with bounded-ARQ replies: every sample reply is permanently
  // lost, so the initiator can never observe a collision — the safety
  // bound trips and the estimate reports invalid instead of hallucinating
  // samples it never received.
  sim::Simulator sim = make_sim(100, 37, /*loss=*/1.0);
  InvertedBirthday ibp({.walk_length = 5, .collisions = 2,
                              .max_samples = 64});
  RngStream rng(5);
  const Estimate e = ibp.estimate_point(sim, 0, rng);
  EXPECT_FALSE(e.valid);
  // Each of the 64 attempts cost the initiator one timeout.
  EXPECT_DOUBLE_EQ(e.delay, 64 * sim.channel().config().timeout);
}

TEST(LossBehavior, AggregationConservesMassUnderLoss) {
  sim::Simulator sim = make_sim(500, 23, /*loss=*/0.3);
  Aggregation agg({.rounds_per_epoch = 10});
  RngStream rng(5);
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 10; ++round) agg.run_round(sim, rng);
  // Ack-gated exchanges: a dropped push or pull masks the exchange, so the
  // epoch's unit of mass is intact and 1/value stays meaningful.
  EXPECT_NEAR(agg.total_mass(sim), 1.0, 1e-9);
}

TEST(LossBehavior, AggregationPushOnlyAlsoConservesMassUnderLoss) {
  sim::Simulator sim = make_sim(500, 23, /*loss=*/0.3);
  Aggregation agg({.rounds_per_epoch = 10, .push_pull = false});
  RngStream rng(5);
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 10; ++round) agg.run_round(sim, rng);
  EXPECT_NEAR(agg.total_mass(sim), 1.0, 1e-9);
}

TEST(LossBehavior, AggregationConvergesSlowerUnderLoss) {
  const int rounds = 20;
  double dispersion[2] = {0.0, 0.0};
  const double losses[2] = {0.0, 0.3};
  for (int variant = 0; variant < 2; ++variant) {
    sim::Simulator sim = make_sim(500, 23, losses[variant]);
    Aggregation agg({.rounds_per_epoch = rounds});
    RngStream rng(5);
    agg.start_epoch(sim, 0);
    for (int round = 0; round < rounds; ++round) agg.run_round(sim, rng);
    dispersion[variant] = oracle::value_dispersion(agg, sim);
  }
  // Masked exchanges mean less mixing per round.
  EXPECT_GT(dispersion[1], dispersion[0]);
}

TEST(LossBehavior, AggregationRoundDelayIsTheSlowestExchange) {
  sim::Simulator sim = make_sim(200, 29, /*loss=*/0.0, /*latency=*/3.0);
  Aggregation agg({.rounds_per_epoch = 5});
  RngStream rng(5);
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 5; ++round) agg.run_round(sim, rng);
  // Constant 3-unit hops: every push-pull exchange takes exactly 6, and the
  // per-round maximum accumulates across the 5 rounds.
  EXPECT_DOUBLE_EQ(agg.estimate_at(sim, 0).delay, 5 * 6.0);
}

TEST(LossBehavior, AggregationMaskedRoundChargesTheDetectionTimeout) {
  // Zero per-hop latency but heavy loss: the only wall-clock cost is
  // detecting masked exchanges, one ack timeout per affected round.
  sim::Simulator sim = make_sim(200, 29, /*loss=*/0.5);
  const double timeout = sim.channel().config().timeout;
  Aggregation agg({.rounds_per_epoch = 5});
  RngStream rng(5);
  agg.start_epoch(sim, 0);
  for (int round = 0; round < 5; ++round) agg.run_round(sim, rng);
  // At 50% loss every round of 200 exchanges masks at least one.
  EXPECT_DOUBLE_EQ(agg.estimate_at(sim, 0).delay, 5 * timeout);
}

TEST(LossBehavior, MultiAggregationMeasuresEpochDelayLikeAggregation) {
  sim::Simulator sim = make_sim(200, 29, /*loss=*/0.0, /*latency=*/3.0);
  MultiAggregation multi({.rounds_per_epoch = 5, .instances = 2});
  RngStream rng(5);
  multi.start_epoch(sim, rng);
  for (int round = 0; round < 5; ++round) multi.run_round(sim, rng);
  EXPECT_DOUBLE_EQ(multi.estimate_at(sim, 0).delay, 5 * 6.0);
}

TEST(LossBehavior, MultiAggregationConservesEveryInstanceUnderLoss) {
  sim::Simulator sim = make_sim(300, 31, /*loss=*/0.3);
  MultiAggregation multi({.rounds_per_epoch = 10, .instances = 4});
  RngStream rng(5);
  multi.start_epoch(sim, rng);
  for (int round = 0; round < 10; ++round) multi.run_round(sim, rng);
  for (std::uint32_t instance = 0; instance < 4; ++instance) {
    double mass = 0.0;
    for (const net::NodeId id : sim.graph().alive_nodes()) {
      mass += multi.value_of(instance, id);
    }
    EXPECT_NEAR(mass, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace p2pse::est
