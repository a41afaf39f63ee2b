// TraceCursor replay contract: the overlay's alive count follows the
// trace's size trajectory exactly, leaves remove the very node the session
// joined as, and write -> load -> replay reproduces the same trajectory
// (the round-trip acceptance gate).
#include "p2pse/trace/cursor.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "p2pse/net/builders.hpp"
#include "p2pse/trace/generators.hpp"
#include "trace_oracles.hpp"

namespace p2pse::trace {
namespace {

net::Graph overlay(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return net::build_heterogeneous_random({n, 1, 10}, rng);
}

ChurnTrace sample_trace(std::uint64_t initial, double duration = 200.0) {
  SessionWorkloadConfig config;
  config.initial_sessions = initial;
  config.duration = duration;
  config.lifetime.law = Lifetime::Law::kWeibull;
  config.lifetime.shape = 0.7;
  config.lifetime.scale = 40.0;
  return generate_sessions(config, support::RngStream(11));
}

TEST(TraceCursor, RequiresEnoughInitialNodes) {
  const ChurnTrace trace = sample_trace(300);
  net::Graph g = overlay(200, 1);
  EXPECT_THROW(TraceCursor(trace, g, {}, support::RngStream(2)),
               std::invalid_argument);
}

TEST(TraceCursor, GraphSizeFollowsTheTraceTrajectory) {
  const ChurnTrace trace = sample_trace(300);
  net::Graph g = overlay(300, 3);
  TraceCursor cursor(trace, g, {}, support::RngStream(4));
  // At every event boundary the alive count must equal the trajectory.
  for (const auto& [time, alive] : oracle::size_trajectory(trace)) {
    cursor.advance_to(time);
    EXPECT_EQ(g.size(), alive) << "at t=" << time;
  }
  cursor.advance_to(trace.duration);
  EXPECT_DOUBLE_EQ(cursor.now(), trace.duration);
}

TEST(TraceCursor, AdvanceIsIdempotentAndMonotone) {
  const ChurnTrace trace = sample_trace(100);
  net::Graph g = overlay(100, 5);
  TraceCursor cursor(trace, g, {}, support::RngStream(6));
  cursor.advance_to(50.0);
  const std::size_t at_50 = g.size();
  cursor.advance_to(50.0);  // re-advancing to the same time applies nothing
  EXPECT_EQ(g.size(), at_50);
  cursor.advance_to(10.0);  // going "backwards" is a no-op, not a rewind
  EXPECT_EQ(g.size(), at_50);
  EXPECT_DOUBLE_EQ(cursor.now(), 50.0);
}

TEST(TraceCursor, LeaveRemovesTheSessionsOwnNode) {
  ChurnTrace trace;
  trace.duration = 10.0;
  trace.initial_sessions = 0;
  trace.events = {{1.0, TraceEvent::Kind::kJoin, 0},
                  {2.0, TraceEvent::Kind::kJoin, 1},
                  {3.0, TraceEvent::Kind::kLeave, 0}};
  trace.validate();
  net::Graph g = overlay(20, 7);
  TraceCursor cursor(trace, g, {}, support::RngStream(8));
  cursor.advance_to(2.5);
  ASSERT_EQ(g.size(), 22u);
  // Ids 20 and 21 are the two joiners, in event order.
  EXPECT_TRUE(g.is_alive(20));
  EXPECT_TRUE(g.is_alive(21));
  cursor.advance_to(3.5);
  EXPECT_FALSE(g.is_alive(20));  // session 0's node, not a random victim
  EXPECT_TRUE(g.is_alive(21));
}

TEST(TraceCursor, RoundTripWriteLoadReplayReproducesTheTrajectory) {
  const ChurnTrace original = sample_trace(250);
  std::stringstream buffer;
  original.write_csv(buffer);
  const ChurnTrace reloaded = ChurnTrace::read_csv(buffer);

  net::Graph g1 = overlay(250, 9);
  net::Graph g2 = overlay(250, 9);
  TraceCursor c1(original, g1, {}, support::RngStream(10));
  TraceCursor c2(reloaded, g2, {}, support::RngStream(10));
  for (double t = 0.0; t <= original.duration; t += original.duration / 40) {
    c1.advance_to(t);
    c2.advance_to(t);
    ASSERT_EQ(g1.size(), g2.size()) << "trajectories diverged at t=" << t;
  }
  c1.advance_to(original.duration);
  c2.advance_to(original.duration);
  EXPECT_EQ(g1.size(), g2.size());
  EXPECT_EQ(g1.edge_count(), g2.edge_count());  // same wiring RNG stream
}

TEST(TraceCursor, ReplicasShareScheduleButNotWiring) {
  const ChurnTrace trace = sample_trace(200);
  net::Graph g1 = overlay(200, 12);
  net::Graph g2 = overlay(200, 13);  // different replica overlay
  TraceCursor c1(trace, g1, {}, support::RngStream(14));
  TraceCursor c2(trace, g2, {}, support::RngStream(15));
  c1.advance_to(trace.duration);
  c2.advance_to(trace.duration);
  // Identical membership schedule...
  EXPECT_EQ(g1.size(), g2.size());
  // ...but independent wiring randomness.
  EXPECT_NE(g1.edge_count(), g2.edge_count());
}

}  // namespace
}  // namespace p2pse::trace
