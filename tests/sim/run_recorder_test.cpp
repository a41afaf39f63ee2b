#include "p2pse/sim/run_recorder.hpp"

#include <gtest/gtest.h>

#include "p2pse/net/builders.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::sim {
namespace {

TEST(RunRecorder, SendAndDeliveryTallyPerNode) {
  RunRecorder recorder;
  recorder.on_send(net::NodeId{3}, /*transmissions=*/2, /*wire_size=*/100);
  recorder.on_delivered(MessageClass::kWalkStep, net::NodeId{5},
                        /*delay=*/7.0, /*wire_size=*/100);
  ASSERT_GE(recorder.node_loads().size(), 6u);
  const RunRecorder::NodeLoad& sender = recorder.node_loads()[3];
  EXPECT_EQ(sender.sent_msgs, 2u);
  EXPECT_EQ(sender.sent_bytes, 200u);
  EXPECT_EQ(sender.recv_msgs, 0u);
  const RunRecorder::NodeLoad& receiver = recorder.node_loads()[5];
  EXPECT_EQ(receiver.recv_msgs, 1u);
  EXPECT_EQ(receiver.recv_bytes, 100u);
  EXPECT_EQ(recorder.max_node_messages(), 2u);
  EXPECT_EQ(recorder.max_node_bytes(), 200u);
  EXPECT_EQ(recorder.delay(MessageClass::kWalkStep).count(), 1u);
}

TEST(RunRecorder, InvalidNodeSkipsTheTallyButDelayStillObserves) {
  RunRecorder recorder;
  recorder.on_send(net::kInvalidNode, 1, 50);
  recorder.on_delivered(MessageClass::kControl, net::kInvalidNode, 0.0, 50);
  EXPECT_TRUE(recorder.node_loads().empty());
  EXPECT_EQ(recorder.max_node_messages(), 0u);
  EXPECT_EQ(recorder.delay(MessageClass::kControl).count(), 1u);
}

TEST(RunRecorder, ResetNodeLoadsKeepsHistograms) {
  RunRecorder recorder;
  recorder.on_send(net::NodeId{1}, 1, 10);
  recorder.on_walk(42);
  recorder.reset_node_loads();
  EXPECT_TRUE(recorder.node_loads().empty());
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

  const std::uint64_t walk_wire =
      meter.wire_size(MessageClass::kWalkStep);
  ASSERT_GE(recorder.node_loads().size(), 4u);
  EXPECT_EQ(recorder.node_loads()[1].sent_msgs, 1u);
  EXPECT_EQ(recorder.node_loads()[1].sent_bytes, walk_wire);
  EXPECT_EQ(recorder.node_loads()[2].recv_msgs, 1u);
  EXPECT_EQ(recorder.node_loads()[2].recv_bytes, walk_wire);
  EXPECT_EQ(recorder.node_loads()[3].sent_msgs, 1u);
  EXPECT_EQ(recorder.node_loads()[0].recv_msgs, 1u);
  // Each logical send observed one delay, under its own class.
  EXPECT_EQ(recorder.delay(MessageClass::kWalkStep).count(), 1u);
  EXPECT_EQ(recorder.delay(MessageClass::kControl).count(), 1u);
  EXPECT_EQ(recorder.node_loads()[1].messages() +
                recorder.node_loads()[2].messages(),
            2u);
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
  EXPECT_GE(recorder->node_loads().size(), 1u);
  EXPECT_EQ(recorder->node_loads()[0].sent_msgs, 1u);
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
