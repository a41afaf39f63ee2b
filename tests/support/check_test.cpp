// Contract-layer acceptance: P2PSE_CHECK fires (throws support::CheckFailure)
// on seeded violations of the invariants it guards — and compiles to a true
// no-op when P2PSE_CHECKED is off. The same file builds in both modes; the
// checked-only sections are the proof that each deployed contract is
// reachable by a real misuse, not dead ceremony.
#include "p2pse/support/check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "p2pse/net/graph.hpp"
#include "p2pse/net/session.hpp"
#include "p2pse/scenario/timeline.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/topo/topology.hpp"
#include "p2pse/trace/cursor.hpp"

#if P2PSE_CHECK_ENABLED
#include <atomic>
#include <thread>
#endif

namespace p2pse {
namespace {

TEST(CheckFailure, CarriesFileLineExpressionAndMessage) {
  const support::CheckFailure failure("graph.cpp", 42, "a == b", "book lost");
  const std::string what = failure.what();
  EXPECT_NE(what.find("graph.cpp:42"), std::string::npos);
  EXPECT_NE(what.find("a == b"), std::string::npos);
  EXPECT_NE(what.find("book lost"), std::string::npos);
}

#if P2PSE_CHECK_ENABLED

TEST(CheckedBuild, MacroThrowsOnFalseAndPassesOnTrue) {
  EXPECT_THROW(P2PSE_CHECK(1 + 1 == 3), support::CheckFailure);
  EXPECT_THROW(P2PSE_CHECK_MSG(false, "reason"), support::CheckFailure);
  EXPECT_NO_THROW(P2PSE_CHECK(true));
}

TEST(CheckedBuild, RngStreamCountsUniformDraws) {
  support::RngStream rng(7);
  EXPECT_EQ(rng.debug_draw_count(), 0u);
  (void)rng.uniform_real();
  EXPECT_EQ(rng.debug_draw_count(), 1u);
  (void)rng.uniform_real();
  EXPECT_EQ(rng.debug_draw_count(), 2u);
  // Box-Muller consumes exactly two uniforms per variate.
  (void)rng.normal();
  EXPECT_EQ(rng.debug_draw_count(), 4u);
  // Degenerate Bernoulli trials short-circuit without consuming a draw —
  // the property that keeps an ideal channel draw-identical to no channel.
  (void)rng.bernoulli(0.0);
  (void)rng.bernoulli(1.0);
  EXPECT_EQ(rng.debug_draw_count(), 4u);
  (void)rng.bernoulli(0.5);
  EXPECT_EQ(rng.debug_draw_count(), 5u);
}

TEST(CheckedBuild, RngStreamSplitDoesNotConsumeParentDraws) {
  support::RngStream rng(7);
  support::RngStream child = rng.split("child");
  EXPECT_EQ(rng.debug_draw_count(), 0u);
  (void)child.uniform_real();
  EXPECT_EQ(rng.debug_draw_count(), 0u);
  EXPECT_EQ(child.debug_draw_count(), 1u);
}

TEST(CheckedBuild, RngStreamCopyRestartsAccountingAndRebinds) {
  support::RngStream rng(7);
  (void)rng.uniform_real();
  support::RngStream copy = rng;
  // The copy is a NEW stream value: same continuation of the value stream,
  // but its accounting restarts and it binds to its own first drawer.
  EXPECT_EQ(copy.debug_draw_count(), 0u);
  const double from_copy = copy.uniform_real();
  const double from_original = rng.uniform_real();
  EXPECT_EQ(from_copy, from_original);
  EXPECT_EQ(copy.debug_draw_count(), 1u);
  EXPECT_EQ(rng.debug_draw_count(), 2u);
}

TEST(CheckedBuild, RngStreamDetectsCrossThreadSharing) {
  support::RngStream rng(7);
  (void)rng.uniform_real();  // binds the stream to this thread
  std::atomic<bool> fired{false};
  std::thread worker([&] {
    try {
      (void)rng.uniform_real();
    } catch (const support::CheckFailure&) {
      fired = true;
    }
  });
  worker.join();
  EXPECT_TRUE(fired.load())
      << "a second thread drew from a bound stream without tripping the "
         "affinity contract";
  // A copy handed to another thread is the sanctioned pattern: it re-binds.
  support::RngStream handoff = rng;
  std::atomic<bool> copy_ok{false};
  std::thread clean([&] {
    (void)handoff.uniform_real();
    copy_ok = true;
  });
  clean.join();
  EXPECT_TRUE(copy_ok.load());
}

TEST(CheckedBuild, SessionMembershipDetectsOutOfBandRemoval) {
  net::Graph graph(10);
  net::SessionMembership members(graph);
  members.adopt_initial(5);
  // Session 2 holds the third alive node (adopt_initial's prefix order).
  const net::NodeId victim = graph.alive_nodes()[2];
  // A second churn driver removing the node directly desynchronizes the
  // membership; the later leave must fire, not silently no-op.
  graph.remove_node(victim);
  EXPECT_THROW((void)members.leave(2), support::CheckFailure);
}

/// Misbehaving subscriber: churns the graph re-entrantly from on_leave.
class ReentrantObserver : public net::MembershipObserver {
 public:
  explicit ReentrantObserver(net::Graph& graph) : graph_(&graph) {}
  void on_leave(net::NodeId id) override {
    graph_->set_observer(nullptr);  // avoid infinite recursion in the test
    graph_->remove_node(id);
  }

 private:
  net::Graph* graph_;
};

TEST(CheckedBuild, GraphDetectsReentrantObserverChurn) {
  net::Graph graph(4);
  ReentrantObserver observer(graph);
  graph.set_observer(&observer);
  EXPECT_THROW(graph.remove_node(2), support::CheckFailure);
}

TEST(CheckedBuild, GraphAddEdgeRejectsDeadOrOutOfRangeEndpoint) {
  net::Graph graph(3);
  graph.remove_node(1);
  // Wiring a dead (or never-created) endpoint is a caller bug: callers that
  // accept untrusted ids must probe is_alive() first.
  EXPECT_THROW((void)graph.add_edge(0, 1), support::CheckFailure);
  EXPECT_THROW((void)graph.add_edge(99, 0), support::CheckFailure);
  // Self-loops stay a tolerant false in both modes (probed speculatively by
  // random wiring loops), and live endpoints are untouched.
  EXPECT_FALSE(graph.add_edge(2, 2));
  EXPECT_TRUE(graph.add_edge(0, 2));
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(CheckedBuild, ScenarioCursorRejectsBackwardsDrive) {
  scenario::ScenarioScript script;
  script.duration = 100.0;
  net::Graph graph(16);
  scenario::ScenarioCursor cursor(script, graph, support::RngStream(5));
  cursor.advance_to(50.0);
  // Re-advancing to the current time is legal (idempotent round drivers)...
  EXPECT_NO_THROW(cursor.advance_to(50.0));
  // ...as is overshooting the script's end, repeatedly (the clamp).
  EXPECT_NO_THROW(cursor.advance_to(500.0));
  EXPECT_NO_THROW(cursor.advance_to(200.0));
  // But a genuinely backwards drive silently skips churn: contract violation.
  scenario::ScenarioCursor fresh(script, graph, support::RngStream(5));
  fresh.advance_to(50.0);
  EXPECT_THROW(fresh.advance_to(49.0), support::CheckFailure);
}

TEST(CheckedBuild, TraceCursorDetectsUnsortedTraceReplay) {
  // A trace that passed validate() cannot be unsorted; replaying a
  // hand-built one that skipped validation must fire, not desynchronize.
  trace::ChurnTrace bad;
  bad.duration = 10.0;
  bad.initial_sessions = 0;
  bad.events = {{5.0, trace::TraceEvent::Kind::kJoin, 0},
                {1.0, trace::TraceEvent::Kind::kJoin, 1}};
  net::Graph graph(8);
  trace::TraceCursor cursor(bad, graph, {}, support::RngStream(3));
  EXPECT_THROW(cursor.advance_to(10.0), support::CheckFailure);
}

TEST(CheckedBuild, ChannelRejectsInvalidPerLinkEndpoints) {
  const sim::NetworkConfig net =
      sim::NetworkConfig::parse("net:loss=0.1,latency=constant:1,timeout=5");
  sim::Channel channel(net, support::RngStream(3));
  const topo::TopologyConfig config = topo::TopologyConfig::parse(
      "topo:clustered,regions=2");
  topo::Topology topology(config, support::RngStream(4));
  channel.set_topology(&topology);
  sim::MessageMeter meter;
  EXPECT_THROW(
      channel.send(meter, sim::MessageClass::kWalkStep, net::kInvalidNode, 3),
      support::CheckFailure);
  EXPECT_THROW(channel.send_arq(meter, sim::MessageClass::kWalkStep,
                                net::kInvalidNode, 2),
               support::CheckFailure);
  EXPECT_THROW(channel.send_reliable(meter, sim::MessageClass::kWalkStep, 1,
                                     net::kInvalidNode),
               support::CheckFailure);
  EXPECT_NO_THROW(
      channel.send_reliable(meter, sim::MessageClass::kWalkStep, 1, 2));
  // Self-sends are legal: a uniform poll may draw its own initiator.
  EXPECT_NO_THROW(channel.send(meter, sim::MessageClass::kWalkStep, 3, 3));

  // The contract covers every send, not only per-link ones: without a
  // topology, on the ideal fast path and on the i.i.d. lossy path alike.
  for (sim::Channel iid :
       {sim::Channel(), sim::Channel(net, support::RngStream(5))}) {
    EXPECT_THROW(
        iid.send(meter, sim::MessageClass::kWalkStep, net::kInvalidNode, 3),
        support::CheckFailure);
    EXPECT_THROW(
        iid.send_arq(meter, sim::MessageClass::kWalkStep, 1, net::kInvalidNode),
        support::CheckFailure);
    EXPECT_THROW(iid.send_reliable(meter, sim::MessageClass::kWalkStep,
                                   net::kInvalidNode, net::kInvalidNode),
                 support::CheckFailure);
    EXPECT_NO_THROW(iid.send(meter, sim::MessageClass::kWalkStep, 1, 2));
  }
}

#else  // !P2PSE_CHECK_ENABLED

TEST(UncheckedBuild, MacroDoesNotEvaluateItsCondition) {
  bool touched = false;
  // In unchecked builds the macros expand to static_cast<void>(0): the
  // condition must not run — contracts may be arbitrarily expensive.
  P2PSE_CHECK((touched = true));
  P2PSE_CHECK_MSG((touched = true), "never built");
  EXPECT_FALSE(touched);
}

TEST(UncheckedBuild, GraphAddEdgeToleratesDeadEndpoints) {
  net::Graph graph(3);
  graph.remove_node(1);
  // Documented tolerant behavior without the contract layer: reject quietly.
  EXPECT_FALSE(graph.add_edge(0, 1));
  EXPECT_FALSE(graph.add_edge(99, 0));
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(UncheckedBuild, ScenarioCursorToleratesBackwardsDrive) {
  scenario::ScenarioScript script;
  script.duration = 100.0;
  net::Graph graph(16);
  scenario::ScenarioCursor cursor(script, graph, support::RngStream(5));
  cursor.advance_to(50.0);
  // No monotonicity bookkeeping compiled in: backwards drive is a no-op.
  EXPECT_NO_THROW(cursor.advance_to(25.0));
  EXPECT_DOUBLE_EQ(cursor.now(), 50.0);
}

#endif  // P2PSE_CHECK_ENABLED

}  // namespace
}  // namespace p2pse
