// Topology model: spec grammar, embedding determinism (golden per-node
// draws at a fixed seed), link-parameter composition, and churn-rejoin
// reproducibility through the graph membership hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "p2pse/net/churn.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::topo {
namespace {

TEST(TopoSpec, BareAndFlatParseToTheIdentity) {
  for (const char* text : {"topo", "topo:flat"}) {
    const TopologyConfig config = TopologyConfig::parse(text);
    EXPECT_EQ(config.model, "flat");
    EXPECT_TRUE(config.flat());
    EXPECT_FALSE(config.lossy());
  }
}

TEST(TopoSpec, DefaultConstructedConfigIsFlat) {
  EXPECT_TRUE(TopologyConfig{}.flat());
  EXPECT_FALSE(TopologyConfig{}.lossy());
}

TEST(TopoSpec, ClusteredDefaultsAreNeitherFlatNorLossFree) {
  const TopologyConfig config = TopologyConfig::parse("topo:clustered");
  EXPECT_EQ(config.model, "clustered");
  EXPECT_FALSE(config.flat());
  EXPECT_TRUE(config.lossy());
  EXPECT_EQ(config.regions, 4u);
  EXPECT_GT(config.prop, 0.0);
}

TEST(TopoSpec, ClassesModelHasZeroGeometry) {
  const TopologyConfig config =
      TopologyConfig::parse("topo:classes,mix=0:0.5:0.5");
  EXPECT_EQ(config.regions, 0u);
  EXPECT_EQ(config.prop, 0.0);
  EXPECT_DOUBLE_EQ(config.mix[0], 0.0);
  EXPECT_DOUBLE_EQ(config.mix[1], 0.5);
  EXPECT_FALSE(config.flat());
}

TEST(TopoSpec, MixIsNormalized) {
  const TopologyConfig config =
      TopologyConfig::parse("topo:clustered,mix=1:2:1");
  EXPECT_DOUBLE_EQ(config.mix[0], 0.25);
  EXPECT_DOUBLE_EQ(config.mix[1], 0.5);
  EXPECT_DOUBLE_EQ(config.mix[2], 0.25);
}

TEST(TopoSpec, ClassTripleOverride) {
  const TopologyConfig config =
      TopologyConfig::parse("topo:clustered,mob=60:0.08:25");
  const ClassProfile& mob =
      config.classes[static_cast<std::size_t>(PeerClass::kMobile)];
  EXPECT_DOUBLE_EQ(mob.access_latency, 60.0);
  EXPECT_DOUBLE_EQ(mob.loss, 0.08);
  EXPECT_DOUBLE_EQ(mob.jitter, 25.0);
}

TEST(TopoSpec, HardErrors) {
  // Unknown model, unknown key, malformed values, invalid ranges,
  // duplicate keys: all must throw (registry strictness).
  EXPECT_THROW((void)TopologyConfig::parse("topo:clusterd"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,region=4"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:flat,regions=4"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,regions=x"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,mix=1:2"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,mix=0:0:0"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,mix=-1:1:1"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,penalty=1"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,background=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("topo:clustered,mob=60:2:25"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)TopologyConfig::parse("topo:clustered,regions=2,regions=4"),
      std::invalid_argument);
  EXPECT_THROW((void)TopologyConfig::parse("net:loss=0"),
               std::invalid_argument);
}

TEST(TopoSpec, CanonicalRoundTrips) {
  for (const char* text :
       {"topo:flat", "topo:classes,mix=0:0.5:0.5",
        "topo:clustered,regions=16,spread=25,prop=0.05,penalty=0.02,"
        "mix=0:0.2:0.8,mob=60:0.08:25"}) {
    const TopologyConfig config = TopologyConfig::parse(text);
    const TopologyConfig reparsed = TopologyConfig::parse(config.canonical());
    EXPECT_EQ(reparsed.canonical(), config.canonical()) << text;
    EXPECT_EQ(reparsed.model, config.model);
    EXPECT_EQ(reparsed.regions, config.regions);
    EXPECT_DOUBLE_EQ(reparsed.prop, config.prop);
    for (std::size_t i = 0; i < kPeerClassCount; ++i) {
      EXPECT_DOUBLE_EQ(reparsed.mix[i], config.mix[i]);
      EXPECT_DOUBLE_EQ(reparsed.classes[i].loss, config.classes[i].loss);
    }
  }
}

// --- embedding determinism ---------------------------------------------------

Topology make_topology(std::string_view spec, std::uint64_t seed = 42) {
  return Topology(TopologyConfig::parse(spec),
                  support::RngStream(seed).split("topo"));
}

TEST(TopoDeterminism, NodeDrawsAreQueryOrderIndependent) {
  Topology forward = make_topology("topo:clustered");
  Topology backward = make_topology("topo:clustered");
  Topology::NodeInfo f[6];
  for (net::NodeId id = 0; id < 6; ++id) f[id] = forward.node(id);
  for (net::NodeId id = 6; id-- > 0;) {
    const Topology::NodeInfo& b = backward.node(id);
    EXPECT_DOUBLE_EQ(b.x, f[id].x);
    EXPECT_DOUBLE_EQ(b.y, f[id].y);
    EXPECT_EQ(b.region, f[id].region);
    EXPECT_EQ(b.cls, f[id].cls);
  }
}

// Golden lock on the embedding at seed 42: any change to the draw order or
// the hash/stream derivation shows up here before it silently re-randomizes
// every topology figure.
TEST(TopoDeterminism, GoldenEmbeddingAtSeed42) {
  Topology topology = make_topology("topo:clustered");
  const auto quantize = [](double v) { return std::round(v * 100.0) / 100.0; };
  struct Golden {
    net::NodeId id;
    double x, y;
    std::uint32_t region;
    PeerClass cls;
  };
  // Transcribed from the implementation at the PR that introduced it.
  const Golden golden[] = {
      {0, 741.89, 698.71, 1, PeerClass::kBroadband},
      {1, 683.95, 115.91, 2, PeerClass::kBroadband},
      {2, 637.75, 835.02, 3, PeerClass::kBroadband},
      {3, 431.67, 756.20, 0, PeerClass::kDatacenter},
  };
  for (const Golden& g : golden) {
    const Topology::NodeInfo& info = topology.node(g.id);
    EXPECT_DOUBLE_EQ(quantize(info.x), g.x) << "node " << g.id;
    EXPECT_DOUBLE_EQ(quantize(info.y), g.y) << "node " << g.id;
    EXPECT_EQ(info.region, g.region) << "node " << g.id;
    EXPECT_EQ(info.cls, g.cls) << "node " << g.id;
  }
}

TEST(TopoDeterminism, ClassCensusTracksTheConfiguredMix) {
  Topology topology = make_topology("topo:clustered,mix=0:0.2:0.8");
  net::Graph graph(4000);
  topology.attach(graph);
  const auto& counts = topology.alive_class_counts();
  EXPECT_EQ(counts[0], 0u);
  EXPECT_NEAR(static_cast<double>(counts[1]), 800.0, 80.0);
  EXPECT_NEAR(static_cast<double>(counts[2]), 3200.0, 80.0);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], graph.size());
}

// --- link composition --------------------------------------------------------

TEST(TopoLink, ParametersAreSymmetric) {
  Topology topology = make_topology("topo:clustered,regions=8");
  for (net::NodeId a = 0; a < 10; ++a) {
    for (net::NodeId b = 0; b < 10; ++b) {
      const Topology::LinkParams ab = topology.link(a, b);
      const Topology::LinkParams ba = topology.link(b, a);
      EXPECT_DOUBLE_EQ(ab.latency, ba.latency);
      EXPECT_DOUBLE_EQ(ab.loss, ba.loss);
      EXPECT_DOUBLE_EQ(ab.jitter_span, ba.jitter_span);
    }
  }
}

TEST(TopoLink, InterRegionLinksPayTheLossPenalty) {
  // penalty-only config: classes lossless, so the ONLY loss is regional.
  Topology topology = make_topology(
      "topo:clustered,regions=4,penalty=0.2,mix=1:0:0,dc=0:0:0");
  bool saw_intra = false, saw_inter = false;
  for (net::NodeId a = 0; a < 40 && !(saw_intra && saw_inter); ++a) {
    for (net::NodeId b = a + 1; b < 40; ++b) {
      const std::uint32_t region_a = topology.node(a).region;
      const std::uint32_t region_b = topology.node(b).region;
      const bool same = region_a == region_b;
      const Topology::LinkParams link = topology.link(a, b);
      if (same) {
        EXPECT_DOUBLE_EQ(link.loss, 0.0);
        saw_intra = true;
      } else {
        EXPECT_DOUBLE_EQ(link.loss, 0.2);
        saw_inter = true;
      }
    }
  }
  EXPECT_TRUE(saw_intra);
  EXPECT_TRUE(saw_inter);
}

TEST(TopoLink, LatencyComposesPropagationAndAccessTerms) {
  // Zero-jitter single class with access latency 3: every link costs
  // 2*3 + prop * distance.
  Topology topology =
      make_topology("topo:clustered,regions=2,prop=0.5,mix=1:0:0,dc=3:0:0");
  // Copies, not references: materializing node 1 may grow the cache and
  // invalidate a reference to node 0 (documented on Topology::node).
  const Topology::NodeInfo a = topology.node(0);
  const Topology::NodeInfo b = topology.node(1);
  const double dist = std::hypot(a.x - b.x, a.y - b.y);
  const Topology::LinkParams link = topology.link(0, 1);
  EXPECT_NEAR(link.latency, 6.0 + 0.5 * dist, 1e-9);
  EXPECT_DOUBLE_EQ(link.jitter_span, 0.0);
}

TEST(TopoLink, ClassLossesComposeAcrossBothEndpoints) {
  // All-mobile, loss 0.1 per endpoint, no penalty: every link drops with
  // 1 - 0.9^2.
  Topology topology = make_topology(
      "topo:clustered,regions=1,penalty=0,mix=0:0:1,mob=0:0.1:0");
  const Topology::LinkParams link = topology.link(0, 1);
  EXPECT_NEAR(link.loss, 1.0 - 0.81, 1e-12);
}

// --- churn-rejoin reproducibility -------------------------------------------

TEST(TopoChurn, JoinedNodesEmbedEagerlyAndDeterministically) {
  const TopologyConfig config = TopologyConfig::parse("topo:clustered");
  Topology live(config, support::RngStream(7).split("topo"));
  net::Graph graph(50);
  live.attach(graph);

  // Churn: nodes leave, fresh ids join through the standard join path.
  support::RngStream churn(99);
  net::remove_random_nodes(graph, 20, churn);
  const net::JoinPolicy policy;
  for (int i = 0; i < 30; ++i) net::join_node(graph, policy, churn);
  std::size_t census = 0;
  for (const std::size_t count : live.alive_class_counts()) census += count;
  EXPECT_EQ(census, graph.size());

  // Stream isolation: every id's embedding — survivors, the departed, and
  // churn-joined newcomers alike — matches a fresh topology that never saw
  // any churn. A leave can never shift a later join's draws.
  Topology fresh(config, support::RngStream(7).split("topo"));
  for (net::NodeId id = 0; id < graph.slot_count(); ++id) {
    const Topology::NodeInfo& a = live.node(id);
    const Topology::NodeInfo& b = fresh.node(id);
    EXPECT_DOUBLE_EQ(a.x, b.x) << "node " << id;
    EXPECT_DOUBLE_EQ(a.y, b.y) << "node " << id;
    EXPECT_EQ(a.region, b.region) << "node " << id;
    EXPECT_EQ(a.cls, b.cls) << "node " << id;
  }
}

TEST(TopoChurn, GraphCopiesDoNotNotifyTheOriginalObserver) {
  Topology topology = make_topology("topo:clustered");
  net::Graph graph(10);
  topology.attach(graph);
  std::size_t census = 0;
  for (const std::size_t count : topology.alive_class_counts()) {
    census += count;
  }
  ASSERT_EQ(census, 10u);

  net::Graph copy = graph;  // replica copy: must be detached
  copy.add_node();
  copy.remove_node(0);
  census = 0;
  for (const std::size_t count : topology.alive_class_counts()) {
    census += count;
  }
  EXPECT_EQ(census, 10u);
}

}  // namespace
}  // namespace p2pse::topo
