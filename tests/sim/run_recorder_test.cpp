#include "p2pse/sim/run_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "p2pse/net/builders.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::sim {
namespace {

TEST(RunRecorder, SendAndDeliveryTallyPerNode) {
  RunRecorder recorder;
  recorder.on_send(net::NodeId{3}, /*transmissions=*/2, /*wire_size=*/100);
  EXPECT_EQ(recorder.max_node_messages(), 2u);
  EXPECT_EQ(recorder.max_node_bytes(), 200u);
  recorder.on_delivered(MessageClass::kWalkStep, net::NodeId{5},
                        /*delay=*/7.0, /*wire_size=*/100);
  EXPECT_EQ(recorder.max_node_messages(), 2u);  // the receiver holds 1
  EXPECT_EQ(recorder.delay(MessageClass::kWalkStep).count(), 1u);
  // Two more deliveries make the receiver the busiest node: 3 received
  // messages, 300 bytes, with the sender's 2 kept apart from them.
  recorder.on_delivered(MessageClass::kWalkStep, net::NodeId{5}, 7.0, 100);
  recorder.on_delivered(MessageClass::kWalkStep, net::NodeId{5}, 7.0, 100);
  EXPECT_EQ(recorder.max_node_messages(), 3u);
  EXPECT_EQ(recorder.max_node_bytes(), 300u);
}

TEST(RunRecorder, InvalidNodeSkipsTheTallyButDelayStillObserves) {
  RunRecorder recorder;
  recorder.on_send(net::kInvalidNode, 1, 50);
  recorder.on_delivered(MessageClass::kControl, net::kInvalidNode, 0.0, 50);
  EXPECT_EQ(recorder.max_node_messages(), 0u);
  EXPECT_EQ(recorder.max_node_bytes(), 0u);
  EXPECT_EQ(recorder.delay(MessageClass::kControl).count(), 1u);
}

TEST(RunRecorder, ResetNodeLoadsKeepsHistograms) {
  RunRecorder recorder;
  recorder.on_send(net::NodeId{1}, 1, 10);
  recorder.on_walk(42);
  recorder.reset_node_loads();
  EXPECT_EQ(recorder.max_node_messages(), 0u);
  EXPECT_EQ(recorder.max_node_bytes(), 0u);
  EXPECT_EQ(recorder.walk_hops().count(), 1u);
}

// The channel is the one producer of send/delivery records: every send is
// attributed to its own endpoints and observes one delay for its class.
TEST(RunRecorder, ChannelRecordsEndpointsAndDelays) {
  Channel channel;  // ideal, draws nothing
  RunRecorder recorder;
  channel.set_recorder(&recorder);
  MessageMeter meter;

  const Channel::Delivery link =
      channel.send(meter, MessageClass::kWalkStep, net::NodeId{1},
                   net::NodeId{2});
  ASSERT_TRUE(link.delivered);
  const Channel::Delivery control =
      channel.send(meter, MessageClass::kControl, net::NodeId{3},
                   net::NodeId{0});
  ASSERT_TRUE(control.delivered);

  // Four distinct endpoints, one message each: nobody carries two.
  EXPECT_EQ(recorder.max_node_messages(), 1u);
  EXPECT_EQ(recorder.max_node_bytes(),
            std::max(meter.wire_size(MessageClass::kWalkStep),
                     meter.wire_size(MessageClass::kControl)));
  // Each logical send observed one delay, under its own class.
  EXPECT_EQ(recorder.delay(MessageClass::kWalkStep).count(), 1u);
  EXPECT_EQ(recorder.delay(MessageClass::kControl).count(), 1u);
  // Every endpoint of the 4-node overlay was tallied once.
  net::Graph graph(4);
  support::FixedHistogram messages(node_message_bounds());
  support::FixedHistogram bytes(node_byte_bounds());
  recorder.fill_load_histograms(graph, messages, bytes);
  ASSERT_EQ(messages.count(), 4u);
  EXPECT_EQ(messages.buckets()[0], 0u);  // no alive node left at zero load
}

TEST(RunRecorder, SimulatorEnableRecorderSurvivesSetNetwork) {
  support::RngStream graph_rng(7);
  Simulator sim(net::build_heterogeneous_random({100, 1, 10}, graph_rng), 11);
  EXPECT_EQ(sim.recorder(), nullptr);
  sim.enable_recorder();
  ASSERT_NE(sim.recorder(), nullptr);
  RunRecorder* const recorder = sim.recorder();
  sim.enable_recorder();  // idempotent
  EXPECT_EQ(sim.recorder(), recorder);

  // set_network swaps the channel; the recorder must be re-installed.
  sim.set_network(NetworkConfig::parse("net:loss=0.01"));
  (void)sim.send(MessageClass::kWalkStep, net::NodeId{0}, net::NodeId{1});
  EXPECT_EQ(sim.recorder(), recorder);  // same heap object throughout
  EXPECT_GE(recorder->max_node_messages(), 1u);
}

TEST(RunRecorder, FillLoadHistogramsCoversEveryAliveNode) {
  support::RngStream graph_rng(9);
  net::Graph graph = net::build_heterogeneous_random({50, 1, 5}, graph_rng);
  RunRecorder recorder;
  recorder.on_send(net::NodeId{0}, 3, 100);  // one busy node
  support::FixedHistogram messages(node_message_bounds());
  support::FixedHistogram bytes(node_byte_bounds());
  recorder.fill_load_histograms(graph, messages, bytes);
  // Zero-load alive nodes are observed too — the count is the population.
  EXPECT_EQ(messages.count(), graph.size());
  EXPECT_EQ(bytes.count(), graph.size());
}

}  // namespace
}  // namespace p2pse::sim
