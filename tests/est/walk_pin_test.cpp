// Exact-output lock for the random-walk estimators: the value, message
// count and delay of one estimate per (estimator, channel) pair on one
// fixed 2000-node overlay, plus the channel counters the run leaves behind.
// Any change to a walk's draw order, its delivery discipline or its
// collision bookkeeping moves a row here; a failure prints the actual row.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "p2pse/est/inverted_birthday.hpp"
#include "p2pse/est/random_tour.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::est {
namespace {

constexpr const char* kLossy = "net:loss=0.2,latency=exp:20";

const net::Graph& overlay() {
  static const net::Graph graph = [] {
    support::RngStream rng(2026);
    return net::build_heterogeneous_random({2000, 1, 10}, rng);
  }();
  return graph;
}

sim::Simulator make_sim(const char* net, const char* topo) {
  sim::Simulator sim(overlay(), 17);
  if (net != nullptr) sim.set_network(sim::NetworkConfig::parse(net));
  if (topo != nullptr) sim.set_topology(topo::TopologyConfig::parse(topo));
  return sim;
}

/// One pinned row, printed in the form the expectation table uses:
/// "value messages delay valid | sends_iid sends_link drops retransmits
/// arq_timeouts", doubles in hexadecimal so the pin is exact.
std::string row(const Estimate& e, const sim::Channel::Counters& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%a %llu %a %d | %llu %llu %llu %llu %llu",
                e.value, static_cast<unsigned long long>(e.messages), e.delay,
                e.valid ? 1 : 0, static_cast<unsigned long long>(c.sends_iid),
                static_cast<unsigned long long>(c.sends_link),
                static_cast<unsigned long long>(c.drops),
                static_cast<unsigned long long>(c.retransmits),
                static_cast<unsigned long long>(c.arq_timeouts));
  return buf;
}

using Run = std::function<Estimate(sim::Simulator&, support::RngStream&)>;

std::string pinned_row(const Run& run, const char* net, const char* topo) {
  sim::Simulator sim = make_sim(net, topo);
  support::RngStream rng(99);
  const Estimate e = run(sim, rng);
  return row(e, sim.channel().counters());
}

struct Case {
  const char* name;
  Run run;
  const char* ideal;
  const char* lossy;
  const char* clustered;
};

std::vector<Case> cases() {
  SampleCollide quadratic({.timer = 10.0, .collisions = 20});
  SampleCollide mle(
      {.timer = 10.0,
       .collisions = 20,
       .estimator = CollisionEstimator::kMaximumLikelihood});
  InvertedBirthday ibp({.walk_length = 30, .collisions = 5});
  RandomTour tour;
  return {
      {"sample_collide",
       [=](sim::Simulator& sim, support::RngStream& rng) mutable {
         return quadratic.estimate_point(sim, 0, rng);
       },
       "0x1.3c03333333333p+11 24142 0x0p+0 1 | 24142 0 0 0 0",
       "0x1.341cccccccccdp+11 40575 0x1.6e578ec429a62p+19 1 | "
       "40575 0 8158 7898 260",
       "0x1.0c47333333333p+11 45735 0x1.e3915366daf7ep+20 1 | "
       "0 45735 10434 9983 451"},
      {"sample_collide_mle",
       [=](sim::Simulator& sim, support::RngStream& rng) mutable {
         return mle.estimate_point(sim, 0, rng);
       },
       "0x1.2da54f654p+11 24142 0x0p+0 1 | 24142 0 0 0 0",
       "0x1.25ecc74ad999ap+11 40575 0x1.6e578ec429a62p+19 1 | "
       "40575 0 8158 7898 260",
       "0x1.fe0fc92a33332p+10 45735 0x1.e3915366daf7ep+20 1 | "
       "0 45735 10434 9983 451"},
      {"inverted_birthday",
       [=](sim::Simulator& sim, support::RngStream& rng) mutable {
         return ibp.estimate_point(sim, 0, rng);
       },
       "0x1.c7ap+10 4185 0x0p+0 1 | 4185 0 0 0 0",
       "0x1.c7ap+10 5238 0x1.088abbcca5fbep+17 1 | 5238 0 1053 1053 0",
       "0x1.c0e6666666666p+10 5371 0x1.7a2a4edc4c855p+18 1 | "
       "0 5371 1187 1186 1"},
      {"random_tour",
       [=](sim::Simulator& sim, support::RngStream& rng) mutable {
         return tour.estimate_point(sim, 0, rng);
       },
       "0x1.bc00000000002p+9 642 0x0p+0 1 | 642 0 0 0 0",
       "0x1.bc00000000002p+9 806 0x1.46050cd47e697p+14 1 | 806 0 164 164 0",
       "0x1.bc00000000002p+9 823 0x1.cf19bcf40d174p+15 1 | 0 823 181 181 0"},
  };
}

TEST(WalkPins, IdealChannel) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(pinned_row(c.run, nullptr, nullptr), c.ideal);
  }
}

TEST(WalkPins, LossyChannel) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(pinned_row(c.run, kLossy, nullptr), c.lossy);
  }
}

TEST(WalkPins, LossyClusteredChannel) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(pinned_row(c.run, kLossy, "topo:clustered,regions=4"),
              c.clustered);
  }
}

}  // namespace
}  // namespace p2pse::est
