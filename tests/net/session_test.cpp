#include "p2pse/net/session.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "p2pse/net/builders.hpp"

namespace p2pse::net {
namespace {

Graph overlay(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return build_heterogeneous_random({n, 1, 10}, rng);
}

TEST(SessionMembership, AdoptsInitialPrefixInAliveOrder) {
  Graph g = overlay(50, 1);
  SessionMembership members(g);
  members.adopt_initial(10);
  EXPECT_EQ(members.active_sessions(), 10u);
  const std::vector<NodeId> prefix(g.alive_nodes().begin(),
                                   g.alive_nodes().begin() + 10);
  for (SessionId s = 0; s < 10; ++s) EXPECT_EQ(members.leave(s), prefix[s]);
  EXPECT_THROW((void)members.leave(10), std::logic_error);  // never adopted
}

TEST(SessionMembership, AdoptRejectsOversizedInitialPopulation) {
  Graph g = overlay(15, 2);
  SessionMembership members(g);
  EXPECT_THROW(members.adopt_initial(16), std::invalid_argument);
}

TEST(SessionMembership, JoinWiresANodeAndLeaveRemovesExactlyIt) {
  Graph g = overlay(30, 3);
  SessionMembership members(g);
  support::RngStream rng(4);
  const NodeId id = members.join(100, rng);
  EXPECT_TRUE(g.is_alive(id));
  EXPECT_GE(g.degree(id), 1u);
  EXPECT_EQ(g.size(), 31u);
  EXPECT_EQ(members.active_sessions(), 1u);

  EXPECT_EQ(members.leave(100), id);
  EXPECT_FALSE(g.is_alive(id));
  EXPECT_EQ(g.size(), 30u);
  EXPECT_EQ(members.active_sessions(), 0u);
}

TEST(SessionMembership, DoubleJoinAndUnknownLeaveAreLogicErrors) {
  Graph g = overlay(20, 5);
  SessionMembership members(g);
  support::RngStream rng(6);
  (void)members.join(7, rng);
  EXPECT_THROW((void)members.join(7, rng), std::logic_error);
  EXPECT_THROW((void)members.leave(99), std::logic_error);
  (void)members.leave(7);
  EXPECT_THROW((void)members.leave(7), std::logic_error);
}

TEST(SessionMembership, InitialSessionsCanLeave) {
  Graph g = overlay(20, 7);
  SessionMembership members(g);
  members.adopt_initial(20);
  const NodeId first = g.alive_nodes()[0];
  EXPECT_EQ(members.leave(0), first);
  EXPECT_EQ(g.size(), 19u);
  EXPECT_FALSE(g.is_alive(first));
}

}  // namespace
}  // namespace p2pse::net
