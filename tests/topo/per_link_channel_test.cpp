// Per-link channel mode: flat fast-path byte-identity, per-link
// loss/latency composition through the three delivery disciplines, and the
// simulator-level wiring (set_topology / set_network ordering, moves).
#include <gtest/gtest.h>

#include "p2pse/net/builders.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::sim {
namespace {

topo::TopologyConfig clustered() {
  return topo::TopologyConfig::parse("topo:clustered");
}

TEST(PerLinkChannel, FlatTopologyInstallsNothing) {
  sim::Simulator sim(net::Graph(10), 42);
  sim.set_topology(topo::TopologyConfig{});
  EXPECT_EQ(sim.topology(), nullptr);
  sim.set_topology(topo::TopologyConfig::parse("topo:flat"));
  EXPECT_EQ(sim.topology(), nullptr);
}

TEST(PerLinkChannel, FlatTopologyDrawSequenceMatchesBareChannel) {
  // Same seed, same sends: a simulator that installed a flat topology must
  // reproduce the bare lossy channel draw-for-draw.
  NetworkConfig net;
  net.loss = 0.2;
  net.latency = LatencyModel::exponential(5.0);
  sim::Simulator bare(net::Graph(10), 42);
  bare.set_network(net);
  sim::Simulator flat(net::Graph(10), 42);
  flat.set_network(net);
  flat.set_topology(topo::TopologyConfig::parse("topo:flat"));
  for (int i = 0; i < 200; ++i) {
    const Channel::Delivery a = bare.send(MessageClass::kWalkStep, 0, 1);
    const Channel::Delivery b = flat.send(MessageClass::kWalkStep, 0, 1);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_DOUBLE_EQ(a.latency, b.latency);
  }
}

TEST(PerLinkChannel, EndpointLessSendThrowsUnderAPerLinkTopology) {
  sim::Simulator sim(net::Graph(10), 42);
  sim.set_topology(clustered());
  ASSERT_NE(sim.topology(), nullptr);
  // Under a per-link topology a send prices its (from, to) link.
  const Channel::Delivery d = sim.send(MessageClass::kWalkStep, 0, 1);
  EXPECT_GE(d.latency, 0.0);
  EXPECT_EQ(sim.meter().total(), 1u);
  EXPECT_EQ(sim.channel().counters().sends_link, 1u);
}

TEST(PerLinkChannel, MovingTheSimulatorReattachesTheTopology) {
  sim::Simulator original(net::Graph(10), 42);
  original.set_topology(clustered());
  sim::Simulator moved(std::move(original));
  ASSERT_NE(moved.topology(), nullptr);
  // Membership hooks now follow the moved-to graph: a join updates the
  // census and per-link sends keep working.
  std::size_t before = 0;
  for (const std::size_t c : moved.topology()->alive_class_counts()) {
    before += c;
  }
  EXPECT_EQ(before, 10u);
  moved.graph().add_node();
  std::size_t after = 0;
  for (const std::size_t c : moved.topology()->alive_class_counts()) {
    after += c;
  }
  EXPECT_EQ(after, 11u);
  EXPECT_TRUE(moved.send(MessageClass::kWalkStep, 0, 10).latency >= 0.0);
  EXPECT_EQ(moved.channel().counters().sends_link, 1u);
}

TEST(PerLinkChannel, TopologySurvivesSetNetwork) {
  sim::Simulator sim(net::Graph(10), 42);
  sim.set_topology(clustered());
  NetworkConfig net;
  net.loss = 0.1;
  sim.set_network(net);  // channel swap must re-attach the topology
  (void)sim.send(MessageClass::kWalkStep, 0, 1);
  EXPECT_EQ(sim.channel().counters().sends_link, 1u);
  EXPECT_TRUE(sim.channel().lossy());
}

TEST(PerLinkChannel, LosslessZeroLatencyTopologyStillDeliversPerLink) {
  // A non-flat but lossless/zero-loss-free topology: access latency only.
  sim::Simulator sim(net::Graph(4), 42);
  sim.set_topology(topo::TopologyConfig::parse(
      "topo:classes,mix=1:0:0,dc=3:0:0"));
  EXPECT_FALSE(sim.channel().lossy());
  const Channel::Delivery d = sim.send(MessageClass::kWalkStep, 0, 1);
  EXPECT_TRUE(d.delivered);
  // Both endpoints charge their access latency; no other terms exist.
  EXPECT_DOUBLE_EQ(d.latency, 6.0);
}

TEST(PerLinkChannel, PerLinkLossMatchesTheComposedRate) {
  // All-mobile loss 0.2 per endpoint (no penalty): p = 1 - 0.8^2 = 0.36.
  sim::Simulator sim(net::Graph(4), 42);
  sim.set_topology(topo::TopologyConfig::parse(
      "topo:classes,mix=0:0:1,mob=0:0.2:0"));
  int dropped = 0;
  const int kSends = 20000;
  for (int i = 0; i < kSends; ++i) {
    if (!sim.send(MessageClass::kWalkStep, 0, 1).delivered) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / kSends, 0.36, 0.02);
}

TEST(PerLinkChannel, ArqRetransmitsOnTheSameLinkAndChargesTimeouts) {
  sim::Simulator sim(net::Graph(4), 42);
  NetworkConfig net;
  net.timeout = 7.0;
  net.retries = 2;
  sim.set_network(net);
  sim.set_topology(topo::TopologyConfig::parse(
      "topo:classes,mix=0:0:1,mob=2:0.5:0"));
  // Statistics over many logical sends: every extra transmission charges
  // one timeout; a delivered send ends with the link latency (2+2).
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    const Channel::Delivery d = sim.send_arq(MessageClass::kWalkStep, 0, 1);
    ASSERT_GE(d.transmissions, 1u);
    ASSERT_LE(d.transmissions, 3u);
    if (d.delivered) {
      EXPECT_DOUBLE_EQ(
          d.latency, 7.0 * static_cast<double>(d.transmissions - 1) + 4.0);
      ++delivered;
    } else {
      EXPECT_EQ(d.transmissions, 3u);
      EXPECT_DOUBLE_EQ(d.latency, 21.0);
    }
  }
  // Composed per-attempt loss = 1 - 0.5^2 = 0.75; P(delivered in <=3) =
  // 1 - 0.75^3 ~ 0.578.
  EXPECT_NEAR(delivered / 2000.0, 0.578, 0.03);
}

TEST(PerLinkChannel, ReliableSendAlwaysDeliversAndInflatesLatency) {
  sim::Simulator sim(net::Graph(4), 42);
  sim.set_topology(topo::TopologyConfig::parse(
      "topo:classes,mix=0:0:1,mob=2:0.5:0"));
  for (int i = 0; i < 500; ++i) {
    const Channel::Delivery d =
        sim.send_reliable(MessageClass::kWalkStep, 0, 1);
    EXPECT_TRUE(d.delivered);
    // Latency = (transmissions-1) timeouts + the final link latency.
    EXPECT_DOUBLE_EQ(d.latency,
                     50.0 * static_cast<double>(d.transmissions - 1) + 4.0);
  }
}

}  // namespace
}  // namespace p2pse::sim
