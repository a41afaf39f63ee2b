// The HopsSampling spread and the Aggregation/MultiAggregation rounds draw
// a block's random targets before delivering any of them. This file keeps
// the plain per-element loops they replaced as oracles and checks that the
// block loops leave every observable bit where the plain loops do: hop
// counts, reach, rounds, meters, channel counters, gossip values and the
// caller's RNG position.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/aggregation_suite.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/net/analysis.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/churn.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::est {
namespace {

using support::RngStream;

// --- Oracles: the plain loops, one element at a time ----------------------

struct PlainSpread {
  std::vector<std::uint32_t> min_hops;
  std::size_t reached = 0;
  std::uint32_t rounds = 0;
  double delay = 0.0;
};

struct PlainForwarder {
  net::NodeId node;
  std::uint32_t send_hop;
  std::uint32_t rounds_left;
};

PlainSpread plain_spread(const HopsSamplingConfig& config,
                         sim::Simulator& sim, net::NodeId initiator,
                         RngStream& rng) {
  const net::Graph& graph = sim.graph();
  PlainSpread out;
  out.min_hops.assign(graph.slot_count(), net::kUnreached);
  std::vector<std::uint32_t> times_received(graph.slot_count(), 0);
  out.min_hops[initiator] = 0;
  out.reached = 1;
  std::vector<PlainForwarder> frontier{{initiator, 1, config.gossip_for}};
  std::vector<PlainForwarder> next;
  std::vector<std::size_t> picks(config.gossip_to);
  while (!frontier.empty() && out.rounds < config.max_spread_rounds) {
    ++out.rounds;
    next.clear();
    double round_max = 0.0;
    const auto deliver = [&](const PlainForwarder& fw, net::NodeId target) {
      const sim::Channel::Delivery d =
          sim.send(sim::MessageClass::kGossipSpread, fw.node, target);
      if (!d.delivered) return;
      round_max = std::max(round_max, d.latency);
      if (out.min_hops[target] == net::kUnreached) {
        out.min_hops[target] = fw.send_hop;
        ++out.reached;
      } else if (fw.send_hop < out.min_hops[target]) {
        out.min_hops[target] = fw.send_hop;
      }
      if (times_received[target]++ < config.gossip_until) {
        next.push_back({target, out.min_hops[target] + 1, config.gossip_for});
      }
    };
    for (auto& fw : frontier) {
      const auto neighbors = graph.neighbors(fw.node);
      if (neighbors.size() <= config.gossip_to) {
        for (const net::NodeId target : neighbors) deliver(fw, target);
      } else {
        rng.sample_without_replacement(neighbors.size(), picks);
        for (const std::size_t pick : picks) deliver(fw, neighbors[pick]);
      }
      if (--fw.rounds_left > 0) next.push_back(fw);
    }
    frontier.swap(next);
    out.delay += round_max;
  }
  return out;
}

/// The report phase of run_once on top of plain_spread.
struct PlainPoll {
  PlainSpread spread;
  double estimate = 1.0;
  std::size_t replies = 0;
  std::uint32_t max_distance = 0;
};

PlainPoll plain_poll(const HopsSamplingConfig& config, sim::Simulator& sim,
                     net::NodeId initiator, RngStream& rng) {
  const HopsSampling probabilities(config);
  PlainPoll out{plain_spread(config, sim, initiator, rng)};
  for (const net::NodeId id : sim.graph().alive_nodes()) {
    if (id == initiator) continue;
    const std::uint32_t h = out.spread.min_hops[id];
    if (h == net::kUnreached) continue;
    out.max_distance = std::max(out.max_distance, h);
    const double p = probabilities.reply_probability(h);
    if (rng.bernoulli(p)) {
      const sim::Channel::Delivery d =
          sim.send(sim::MessageClass::kPollReply, id, initiator);
      ++out.replies;
      if (d.delivered) out.estimate += 1.0 / p;
    }
  }
  return out;
}

using Commit = std::function<void(net::NodeId, net::NodeId)>;

/// One plain push-pull (or push-only) round, each alive node's peer drawn
/// right before its exchange. `commit` applies a delivered exchange, as
/// the estimator would. Returns the round's delay.
double plain_round(sim::Simulator& sim, RngStream& rng, bool push_pull,
                   const Commit& commit) {
  const net::Graph& graph = sim.graph();
  double round_max = 0.0;
  bool masked = false;
  for (const net::NodeId id : graph.alive_nodes()) {
    const net::NodeId peer = graph.random_neighbor(id, rng);
    if (peer == net::kInvalidNode) continue;
    const sim::Channel::Delivery push =
        sim.send(sim::MessageClass::kAggregationPush, id, peer);
    if (!push.delivered) {
      masked = true;
      continue;
    }
    if (push_pull) {
      const sim::Channel::Delivery pull =
          sim.send(sim::MessageClass::kAggregationPull, peer, id);
      if (!pull.delivered) {
        masked = true;
        continue;
      }
      round_max = std::max(round_max, push.latency + pull.latency);
    } else {
      round_max = std::max(round_max, push.latency);
    }
    commit(id, peer);
  }
  if (masked) round_max = std::max(round_max, sim.channel().config().timeout);
  return round_max;
}

// --- Fixtures --------------------------------------------------------------

/// Builds the same simulator every call, so the block loop and the oracle
/// each get an identical copy.
using SimFactory = std::function<sim::Simulator()>;

SimFactory hetero(std::size_t nodes, std::uint64_t seed) {
  return [=] {
    RngStream rng(seed);
    return sim::Simulator(
        net::build_heterogeneous_random({nodes, 1, 10}, rng), seed + 1);
  };
}

/// Heterogeneous overlay after 30% departures and a wave of joins: the
/// alive order is no longer monotone in the node id.
SimFactory churned(std::size_t nodes, std::uint64_t seed) {
  return [=] {
    sim::Simulator sim = hetero(nodes, seed)();
    RngStream churn(seed + 2);
    net::remove_fraction(sim.graph(), 0.3, churn);
    net::add_nodes(sim.graph(), nodes / 5, {1, 10}, churn);
    return sim;
  };
}

SimFactory lossy_clustered(std::size_t nodes, std::uint64_t seed) {
  return [=] {
    sim::Simulator sim = hetero(nodes, seed)();
    sim.set_network(sim::NetworkConfig::parse("net:loss=0.05,latency=exp:50"));
    sim.set_topology(topo::TopologyConfig::parse("topo:clustered,regions=4"));
    return sim;
  };
}

/// A hub joined to `leaves` leaves (node 0 is the hub), plus `isolated`
/// edgeless nodes.
SimFactory star(std::size_t leaves, std::size_t isolated = 0) {
  return [=] {
    net::Graph graph(1 + leaves + isolated);
    for (std::size_t leaf = 1; leaf <= leaves; ++leaf) {
      graph.add_edge(0, static_cast<net::NodeId>(leaf));
    }
    return sim::Simulator(std::move(graph), 17);
  };
}

/// A ring: every degree equals the default gossipTo.
SimFactory ring(std::size_t nodes) {
  return [=] {
    net::Graph graph(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      graph.add_edge(static_cast<net::NodeId>(i),
                     static_cast<net::NodeId>((i + 1) % nodes));
    }
    return sim::Simulator(std::move(graph), 19);
  };
}

void expect_same_traffic(const sim::Simulator& block,
                         const sim::Simulator& plain) {
  constexpr auto kClasses =
      static_cast<std::size_t>(sim::MessageClass::kCount_);
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto cls = static_cast<sim::MessageClass>(c);
    EXPECT_EQ(block.meter().of(cls), plain.meter().of(cls)) << "class " << c;
  }
  const sim::Channel::Counters& a = block.channel().counters();
  const sim::Channel::Counters& b = plain.channel().counters();
  EXPECT_EQ(a.sends_iid, b.sends_iid);
  EXPECT_EQ(a.sends_link, b.sends_link);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.retransmits, b.retransmits);
  // A lossy fixture must have masked some exchange or dropped some gossip.
  if (block.channel().lossy()) {
    EXPECT_GT(a.drops, 0u);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(BlockLoopFixtures, CoverWhatTheyClaim) {
  const sim::Simulator churned_sim = churned(2000, 4)();
  const auto alive = churned_sim.graph().alive_nodes();
  EXPECT_FALSE(std::is_sorted(alive.begin(), alive.end()));
  const sim::Simulator star_sim = star(130, 5)();
  EXPECT_GT(star_sim.graph().degree(0), 64u);
  EXPECT_EQ(star_sim.graph().degree(133), 0u);
  sim::Simulator lossy_sim = lossy_clustered(700, 16)();
  EXPECT_TRUE(lossy_sim.channel().lossy());
  EXPECT_NE(lossy_sim.topology(), nullptr);
}

// --- HopsSampling ------------------------------------------------------------

struct SpreadCase {
  const char* name;
  SimFactory make;
  HopsSamplingConfig config;
  net::NodeId initiator;
};

std::vector<SpreadCase> spread_cases() {
  HopsSamplingConfig multi_round;
  multi_round.gossip_for = 2;
  multi_round.gossip_until = 3;
  HopsSamplingConfig fanout3;
  fanout3.gossip_to = 3;
  HopsSamplingConfig hub_dense;  // 100 of 200: the dense sampler regime
  hub_dense.gossip_to = 100;
  HopsSamplingConfig hub_sparse;  // 70 of 300: the sparse large-k regime
  hub_sparse.gossip_to = 70;
  return {
      {"hetero", hetero(3001, 1), {}, 0},
      {"hetero_multi_round", hetero(2000, 2), multi_round, 5},
      {"hetero_fanout3", hetero(1500, 3), fanout3, 7},
      {"churned", churned(2000, 4), {}, net::kInvalidNode},
      {"lossy_clustered", lossy_clustered(1200, 5), {}, 3},
      {"lossy_clustered_multi_round", lossy_clustered(900, 6), multi_round, 0},
      {"ring_degree_eq_gossip_to", ring(301), {}, 0},
      {"star_from_hub", star(200, 3), {}, 0},
      {"star_from_leaf", star(200, 3), {}, 150},
      {"star_hub_dense_fanout", star(200), hub_dense, 9},
      {"star_hub_sparse_fanout", star(300), hub_sparse, 0},
      {"isolated_initiator", star(10, 2), {}, 12},
  };
}

net::NodeId pick_initiator(const SpreadCase& c, const sim::Simulator& sim) {
  return c.initiator != net::kInvalidNode ? c.initiator
                                          : sim.graph().alive_nodes()[17];
}

TEST(BlockSpread, MatchesPlainLoop) {
  for (const SpreadCase& c : spread_cases()) {
    SCOPED_TRACE(c.name);
    sim::Simulator block_sim = c.make();
    sim::Simulator plain_sim = c.make();
    const net::NodeId initiator = pick_initiator(c, block_sim);
    RngStream block_rng(99), plain_rng(99);

    const HopsSampling hs(c.config);
    std::vector<std::uint32_t> min_hops(block_sim.graph().slot_count(),
                                        net::kUnreached);
    HopsSamplingResult result;
    hs.spread(block_sim, initiator, block_rng, min_hops, result);
    const PlainSpread plain =
        plain_spread(c.config, plain_sim, initiator, plain_rng);

    EXPECT_EQ(min_hops, plain.min_hops);
    EXPECT_EQ(result.reached, plain.reached);
    EXPECT_EQ(result.spread_rounds, plain.rounds);
    EXPECT_EQ(bits(result.spread_delay), bits(plain.delay));
    expect_same_traffic(block_sim, plain_sim);
    EXPECT_EQ(block_rng.uniform_real(), plain_rng.uniform_real());
  }
}

TEST(BlockSpread, PollMatchesPlainLoop) {
  // The whole poll, so the report phase's reply-probability table is
  // checked against reply_probability too.
  for (const SpreadCase& c : spread_cases()) {
    SCOPED_TRACE(c.name);
    sim::Simulator block_sim = c.make();
    sim::Simulator plain_sim = c.make();
    const net::NodeId initiator = pick_initiator(c, block_sim);
    RngStream block_rng(7), plain_rng(7);

    const HopsSamplingResult r =
        HopsSampling(c.config).run_once(block_sim, initiator, block_rng);
    const PlainPoll plain = plain_poll(c.config, plain_sim, initiator,
                                       plain_rng);

    EXPECT_EQ(bits(r.estimate.value), bits(plain.estimate));
    EXPECT_EQ(r.replies, plain.replies);
    EXPECT_EQ(r.max_distance, plain.max_distance);
    EXPECT_EQ(r.reached, plain.spread.reached);
    expect_same_traffic(block_sim, plain_sim);
    EXPECT_EQ(block_rng.uniform_real(), plain_rng.uniform_real());
  }
}

TEST(BlockSpread, ReplyTableCoversDistancesBeyondTheSpreadsRounds) {
  // Oracle distances are BFS depths: on a 400-node path they exceed any
  // block or table size the spread would produce.
  const auto path = [] {
    net::Graph graph(400);
    for (net::NodeId i = 0; i + 1 < 400; ++i) graph.add_edge(i, i + 1);
    return sim::Simulator(std::move(graph), 23);
  };
  HopsSamplingConfig config;
  config.oracle_distances = true;
  config.min_hops_reporting = 2;
  sim::Simulator sim = path();
  RngStream rng(3), plain_rng(3);
  const HopsSamplingResult r = HopsSampling(config).run_once(sim, 0, rng);
  EXPECT_EQ(r.max_distance, 399u);
  const HopsSampling probabilities(config);
  double expected = 1.0;
  for (std::uint32_t h = 1; h < 400; ++h) {
    const double p = probabilities.reply_probability(h);
    if (plain_rng.bernoulli(p)) expected += 1.0 / p;
  }
  EXPECT_EQ(bits(r.estimate.value), bits(expected));
  EXPECT_EQ(rng.uniform_real(), plain_rng.uniform_real());
}

// --- Aggregation / MultiAggregation ----------------------------------------

struct RoundCase {
  const char* name;
  SimFactory make;
};

std::vector<RoundCase> round_cases() {
  return {
      {"alive_63", hetero(63, 11)},
      {"alive_64", hetero(64, 12)},
      {"alive_65", hetero(65, 13)},
      {"alive_1000", hetero(1000, 14)},
      {"churned", churned(1500, 15)},
      {"isolated_and_hub", star(130, 5)},
      {"lossy_clustered", lossy_clustered(700, 16)},
  };
}

constexpr int kRounds = 6;

TEST(BlockRound, AggregationMatchesPlainLoop) {
  for (const bool push_pull : {true, false}) {
    for (const RoundCase& c : round_cases()) {
      SCOPED_TRACE(testing::Message() << c.name << " push_pull=" << push_pull);
      sim::Simulator block_sim = c.make();
      sim::Simulator plain_sim = c.make();
      const net::NodeId initiator = block_sim.graph().alive_nodes()[0];
      RngStream block_rng(31), plain_rng(31);

      Aggregation agg({.rounds_per_epoch = kRounds, .push_pull = push_pull});
      agg.start_epoch(block_sim, initiator);
      std::vector<double> values(plain_sim.graph().slot_count(), 0.0);
      values[initiator] = 1.0;
      double plain_delay = 0.0;
      for (int r = 0; r < kRounds; ++r) {
        agg.run_round(block_sim, block_rng);
        plain_delay += plain_round(
            plain_sim, plain_rng, push_pull,
            [&](net::NodeId id, net::NodeId peer) {
              if (push_pull) {
                const double mean = 0.5 * (values[id] + values[peer]);
                values[id] = mean;
                values[peer] = mean;
              } else {
                const double half = 0.5 * values[id];
                values[id] -= half;
                values[peer] += half;
              }
            });
      }
      for (net::NodeId id = 0; id < values.size(); ++id) {
        ASSERT_EQ(bits(agg.value_at(id)), bits(values[id])) << "node " << id;
      }
      EXPECT_EQ(bits(agg.estimate_at(block_sim, initiator).delay),
                bits(plain_delay));
      expect_same_traffic(block_sim, plain_sim);
      EXPECT_EQ(block_rng.uniform_real(), plain_rng.uniform_real());
    }
  }
}

TEST(BlockRound, MultiAggregationMatchesPlainLoop) {
  for (const RoundCase& c : round_cases()) {
    SCOPED_TRACE(c.name);
    sim::Simulator block_sim = c.make();
    sim::Simulator plain_sim = c.make();
    RngStream block_rng(37), plain_rng(37);

    MultiAggregation multi({.rounds_per_epoch = kRounds, .instances = 3});
    multi.start_epoch(block_sim, block_rng);
    std::vector<std::vector<double>> values(
        3, std::vector<double>(plain_sim.graph().slot_count(), 0.0));
    for (auto& v : values) v[plain_sim.graph().random_alive(plain_rng)] = 1.0;
    double plain_delay = 0.0;
    for (int r = 0; r < kRounds; ++r) {
      multi.run_round(block_sim, block_rng);
      plain_delay += plain_round(plain_sim, plain_rng, /*push_pull=*/true,
                                 [&](net::NodeId id, net::NodeId peer) {
                                   for (auto& v : values) {
                                     const double mean =
                                         0.5 * (v[id] + v[peer]);
                                     v[id] = mean;
                                     v[peer] = mean;
                                   }
                                 });
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      for (net::NodeId id = 0; id < values[i].size(); ++id) {
        ASSERT_EQ(bits(multi.value_of(i, id)), bits(values[i][id]))
            << "instance " << i << " node " << id;
      }
    }
    EXPECT_EQ(bits(multi.estimate_at(block_sim, 0).delay), bits(plain_delay));
    expect_same_traffic(block_sim, plain_sim);
    EXPECT_EQ(block_rng.uniform_real(), plain_rng.uniform_real());
  }
}

}  // namespace
}  // namespace p2pse::est
