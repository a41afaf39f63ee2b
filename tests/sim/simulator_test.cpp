#include "p2pse/sim/simulator.hpp"

#include <gtest/gtest.h>

namespace p2pse::sim {
namespace {

Simulator make_sim(std::size_t nodes = 4, std::uint64_t seed = 1) {
  return Simulator(net::Graph(nodes), seed);
}

TEST(Simulator, OwnsTheGraph) {
  Simulator sim = make_sim(10);
  EXPECT_EQ(sim.graph().size(), 10u);
  sim.graph().add_edge(0, 1);
  EXPECT_EQ(sim.graph().edge_count(), 1u);
}

TEST(Simulator, ClockStartsAtZero) {
  const Simulator sim = make_sim();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, AdvanceToNeverMovesBackwards) {
  Simulator sim = make_sim();
  sim.advance_to(5.0);
  sim.advance_to(2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, MeterAccumulates) {
  Simulator sim = make_sim();
  sim.meter().count(MessageClass::kWalkStep, 3);
  EXPECT_EQ(sim.meter().total(), 3u);
}

TEST(Simulator, RngIsSeedDeterministic) {
  Simulator a = make_sim(4, 77);
  Simulator b = make_sim(4, 77);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.rng().uniform_real(), b.rng().uniform_real());
  }
}

}  // namespace
}  // namespace p2pse::sim
