#include "p2pse/obs/metrics.hpp"

#include <gtest/gtest.h>

#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::obs {
namespace {

TEST(SimCounters, MergeIsFieldwiseSum) {
  SimCounters a;
  a.replicas = 1;
  a.channel_drops = 2;
  a.graph_joins = 3;
  a.messages[0] = 7;
  a.messages_total = 7;
  a.bytes[0] = 700;
  a.bytes_total = 700;
  SimCounters b = a;
  b.channel_sends_iid = 4;
  a += b;
  EXPECT_EQ(a.replicas, 2u);
  EXPECT_EQ(a.channel_sends_iid, 4u);
  EXPECT_EQ(a.channel_drops, 4u);
  EXPECT_EQ(a.graph_joins, 6u);
  EXPECT_EQ(a.messages[0], 14u);
  EXPECT_EQ(a.messages_total, 14u);
  EXPECT_EQ(a.bytes[0], 1400u);
  EXPECT_EQ(a.bytes_total, 1400u);
}

TEST(SimCounters, MergeTakesTheMaxOfPerNodePeaks) {
  SimCounters a;
  a.max_node_messages = 10;
  a.max_node_bytes = 100;
  SimCounters b;
  b.max_node_messages = 7;
  b.max_node_bytes = 900;
  a += b;
  // Peaks are max-merged, not summed: the per-node maximum over all
  // replicas, invariant under merge order.
  EXPECT_EQ(a.max_node_messages, 10u);
  EXPECT_EQ(a.max_node_bytes, 900u);
}

TEST(SimCounters, DistributionsMergeIsCommutative) {
  SimCounters a;
  a.distributions.walk_hops.observe(3.0);
  a.distributions.degree.observe(8.0);
  a.distributions.delay[0].observe(1.0);
  SimCounters b;
  b.distributions.walk_hops.observe(700.0);  // overflow bucket
  b.distributions.delay[0].observe(42.0);

  SimCounters ab = a;
  ab += b;
  SimCounters ba = b;
  ba += a;
  EXPECT_EQ(ab.distributions.walk_hops, ba.distributions.walk_hops);
  EXPECT_EQ(ab.distributions.degree, ba.distributions.degree);
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    EXPECT_EQ(ab.distributions.delay[i], ba.distributions.delay[i]);
  }
  EXPECT_EQ(ab.distributions.walk_hops.count(), 2u);
  EXPECT_EQ(ab.distributions.delay[0].count(), 2u);
}

// The counter block and the per-protocol MessageMeter must agree class by
// class after a run that generates real traffic — the stats schema's
// "messages" object is the paper's overhead metric, so a drift here would
// corrupt every --stats-json consumer.
TEST(SimCounters, CollectMatchesMessageMeterPerProtocol) {
  support::RngStream graph_rng(21);
  sim::Simulator sim(net::build_heterogeneous_random({2000, 1, 10}, graph_rng),
                     99);
  est::SampleCollide sc({.timer = 10.0, .collisions = 20});
  support::RngStream rng(22);
  const auto estimate = sc.estimate_point(sim, net::NodeId{0}, rng);
  ASSERT_GT(estimate.value, 0.0);
  ASSERT_GT(sim.meter().total(), 0u);

  const SimCounters counters = collect(sim);
  EXPECT_EQ(counters.replicas, 1u);
  EXPECT_EQ(counters.messages_total, sim.meter().total());
  EXPECT_EQ(counters.bytes_total, sim.meter().total_bytes());
  EXPECT_GT(counters.bytes_total, 0u);
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    const auto cls = static_cast<sim::MessageClass>(i);
    EXPECT_EQ(counters.messages[i], sim.meter().of(cls))
        << "message class " << sim::to_string(cls);
    EXPECT_EQ(counters.bytes[i], sim.meter().bytes_of(cls))
        << "message class " << sim::to_string(cls);
    EXPECT_EQ(counters.bytes[i],
              counters.messages[i] * sim.meter().wire_size(cls));
  }
}

// With the recorder enabled, collect() must populate the distributions
// block and the per-node peaks; without one, the block is present with the
// canonical bounds but only the degree histogram carries data (it is a
// pure graph property, filled at collect time).
TEST(SimCounters, CollectFillsDistributionsFromTheRecorder) {
  support::RngStream graph_rng(41);
  sim::Simulator sim(net::build_heterogeneous_random({2000, 1, 10}, graph_rng),
                     77);
  sim.enable_recorder();
  est::SampleCollide sc({.timer = 10.0, .collisions = 20});
  support::RngStream rng(42);
  const auto estimate = sc.estimate_point(sim, net::NodeId{0}, rng);
  ASSERT_GT(estimate.value, 0.0);

  const SimCounters counters = collect(sim);
  EXPECT_GT(counters.distributions.walk_hops.count(), 0u);
  EXPECT_EQ(counters.distributions.delay[0].count(),
            counters.messages[0]);  // ideal channel: every send delivered
  EXPECT_EQ(counters.distributions.degree.count(), sim.graph().size());
  // Every alive node is observed in the load histograms, busy or not.
  EXPECT_EQ(counters.distributions.node_messages.count(), sim.graph().size());
  EXPECT_EQ(counters.distributions.node_bytes.count(), sim.graph().size());
  EXPECT_GT(counters.max_node_messages, 0u);
  EXPECT_GT(counters.max_node_bytes, 0u);
}

TEST(SimCounters, CollectWithoutRecorderStillShapesDistributions) {
  support::RngStream graph_rng(43);
  sim::Simulator sim(net::build_heterogeneous_random({300, 1, 10}, graph_rng),
                     78);
  const SimCounters counters = collect(sim);
  EXPECT_EQ(counters.distributions.walk_hops.count(), 0u);
  EXPECT_FALSE(counters.distributions.walk_hops.bounds().empty());
  EXPECT_EQ(counters.distributions.degree.count(), sim.graph().size());
  EXPECT_EQ(counters.max_node_messages, 0u);
}

TEST(SimCounters, GraphOnlyCollectPopulatesGraphCounters) {
  support::RngStream rng(31);
  net::Graph graph = net::build_heterogeneous_random({500, 1, 10}, rng);
  const SimCounters counters = collect(graph);
  EXPECT_EQ(counters.replicas, 1u);
  EXPECT_EQ(counters.graph_joins, graph.counters().joins);
  EXPECT_GT(counters.graph_joins, 0u);
  EXPECT_EQ(counters.messages_total, 0u);
}

}  // namespace
}  // namespace p2pse::obs
