#include "p2pse/sim/channel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "p2pse/sim/simulator.hpp"

namespace p2pse::sim {
namespace {

// --- NetworkConfig::parse: the net: spec grammar ----------------------------

TEST(NetworkSpec, BareNetParsesToIdealDefaults) {
  const NetworkConfig config = NetworkConfig::parse("net");
  EXPECT_TRUE(config.ideal());
  EXPECT_DOUBLE_EQ(config.loss, 0.0);
  EXPECT_DOUBLE_EQ(config.latency.mean(), 0.0);
  EXPECT_DOUBLE_EQ(config.jitter, 0.0);
  EXPECT_GT(config.timeout, 0.0);
}

TEST(NetworkSpec, ParsesLoss) {
  const NetworkConfig config = NetworkConfig::parse("net:loss=0.05");
  EXPECT_DOUBLE_EQ(config.loss, 0.05);
  EXPECT_FALSE(config.ideal());
}

TEST(NetworkSpec, ParsesConstantLatency) {
  const NetworkConfig config =
      NetworkConfig::parse("net:latency=constant:5");
  EXPECT_DOUBLE_EQ(config.latency.mean(), 5.0);
  EXPECT_EQ(config.latency.describe(), "constant:5");
}

TEST(NetworkSpec, ParsesUniformLatency) {
  const NetworkConfig config =
      NetworkConfig::parse("net:latency=uniform:2:8");
  EXPECT_DOUBLE_EQ(config.latency.mean(), 5.0);
  EXPECT_EQ(config.latency.describe(), "uniform:2:8");
}

TEST(NetworkSpec, ParsesExponentialLatencyUnderBothSpellings) {
  EXPECT_DOUBLE_EQ(NetworkConfig::parse("net:latency=exp:50").latency.mean(),
                   50.0);
  EXPECT_DOUBLE_EQ(
      NetworkConfig::parse("net:latency=exponential:50").latency.mean(),
      50.0);
}

TEST(NetworkSpec, ParsesJitterTimeoutRetries) {
  const NetworkConfig config =
      NetworkConfig::parse("net:jitter=3,timeout=120,retries=5");
  EXPECT_DOUBLE_EQ(config.jitter, 3.0);
  EXPECT_DOUBLE_EQ(config.timeout, 120.0);
  EXPECT_EQ(config.retries, 5u);
}

TEST(NetworkSpec, ExplicitIdealSpecIsIdeal) {
  EXPECT_TRUE(NetworkConfig::parse("net:loss=0,latency=constant:0").ideal());
}

TEST(NetworkSpec, CanonicalRoundTrips) {
  const NetworkConfig config = NetworkConfig::parse(
      "net:loss=0.05,latency=exp:50,jitter=2,timeout=100,retries=3");
  const NetworkConfig reparsed = NetworkConfig::parse(config.canonical());
  EXPECT_DOUBLE_EQ(reparsed.loss, config.loss);
  EXPECT_EQ(reparsed.latency.describe(), config.latency.describe());
  EXPECT_DOUBLE_EQ(reparsed.jitter, config.jitter);
  EXPECT_DOUBLE_EQ(reparsed.timeout, config.timeout);
  EXPECT_EQ(reparsed.retries, config.retries);
}

TEST(NetworkSpec, RejectsWrongName) {
  EXPECT_THROW((void)NetworkConfig::parse("ent:loss=0.1"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse(""), std::invalid_argument);
}

TEST(NetworkSpec, RejectsNegativeLoss) {
  EXPECT_THROW((void)NetworkConfig::parse("net:loss=-0.1"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsLossAboveOne) {
  try {
    (void)NetworkConfig::parse("net:loss=1.5");
    FAIL() << "loss=1.5 must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("[0, 1]"), std::string::npos);
  }
}

TEST(NetworkSpec, RejectsUnknownLatencyModelListingValidOnes) {
  try {
    (void)NetworkConfig::parse("net:latency=gamma:2");
    FAIL() << "unknown latency model must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("constant"), std::string::npos);
    EXPECT_NE(what.find("uniform"), std::string::npos);
    EXPECT_NE(what.find("exp"), std::string::npos);
  }
}

TEST(NetworkSpec, RejectsMalformedLatencyArguments) {
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=constant"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=constant:a"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=uniform:5"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=uniform:9:2"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=exp:0"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=constant:-1"),
               std::invalid_argument);
}

TEST(NetworkSpec, LatencyArityErrorIsPhrasedExactlyOnce) {
  try {
    (void)NetworkConfig::parse("net:latency=constant:1:2");
    FAIL() << "wrong arity must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("constant takes one argument"), std::string::npos);
    // Regression: the arity error used to be re-wrapped by the factory
    // catch, duplicating the whole message inside its own parenthetical.
    EXPECT_EQ(what.find("expects"), what.rfind("expects"));
  }
}

TEST(NetworkSpec, RejectsZeroOrNegativeTimeout) {
  EXPECT_THROW((void)NetworkConfig::parse("net:timeout=0"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:timeout=-5"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsNegativeJitter) {
  EXPECT_THROW((void)NetworkConfig::parse("net:jitter=-1"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsUnknownKeyListingValidKeys) {
  try {
    (void)NetworkConfig::parse("net:los=0.1");
    FAIL() << "unknown key must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("los"), std::string::npos);
    EXPECT_NE(what.find(std::string(NetworkConfig::keys_help())),
              std::string::npos);
  }
}

TEST(NetworkSpec, RejectsOverrideWithoutValue) {
  EXPECT_THROW((void)NetworkConfig::parse("net:loss"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:=5"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsMalformedNumbers) {
  EXPECT_THROW((void)NetworkConfig::parse("net:loss=abc"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:retries=1.5"),
               std::invalid_argument);
}

// --- Channel delivery semantics ---------------------------------------------

TEST(Channel, DefaultChannelIsIdealAndDeliversAtZeroLatency) {
  Channel channel;
  MessageMeter meter;
  EXPECT_TRUE(channel.ideal());
  for (int i = 0; i < 100; ++i) {
    const Channel::Delivery d =
        channel.send(meter, MessageClass::kWalkStep, 0, 1);
    EXPECT_TRUE(d.delivered);
    EXPECT_DOUBLE_EQ(d.latency, 0.0);
    EXPECT_EQ(d.transmissions, 1u);
  }
  EXPECT_EQ(meter.of(MessageClass::kWalkStep), 100u);
}

TEST(Channel, SimulatorStartsWithTheIdealChannel) {
  Simulator sim(net::Graph(4), 1);
  EXPECT_TRUE(sim.channel().ideal());
}

TEST(Channel, ExplicitIdealConfigKeepsTheFastPath) {
  Simulator sim(net::Graph(4), 1);
  sim.set_network(NetworkConfig::parse("net:loss=0,latency=constant:0"));
  EXPECT_TRUE(sim.channel().ideal());
  const Channel::Delivery d = sim.send(MessageClass::kGossipSpread, 0, 1);
  EXPECT_TRUE(d.delivered);
  EXPECT_DOUBLE_EQ(d.latency, 0.0);
  EXPECT_EQ(sim.meter().of(MessageClass::kGossipSpread), 1u);
}

TEST(Channel, DropRateTracksTheConfiguredLoss) {
  NetworkConfig config;
  config.loss = 0.05;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  int dropped = 0;
  const int sends = 20000;
  for (int i = 0; i < sends; ++i) {
    if (!channel.send(meter, MessageClass::kWalkStep, 0, 1).delivered) {
      ++dropped;
    }
  }
  const double rate = static_cast<double>(dropped) / sends;
  EXPECT_NEAR(rate, 0.05, 0.01);
  EXPECT_EQ(meter.of(MessageClass::kWalkStep),
            static_cast<std::uint64_t>(sends));
}

TEST(Channel, LatencySamplesMatchTheModelMean) {
  NetworkConfig config;
  config.latency = LatencyModel::exponential(50.0);
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  double total = 0.0;
  const int sends = 20000;
  for (int i = 0; i < sends; ++i) {
    total += channel.send(meter, MessageClass::kWalkStep, 0, 1).latency;
  }
  EXPECT_NEAR(total / sends, 50.0, 2.0);
}

TEST(Channel, JitterAddsBoundedExtraLatency) {
  NetworkConfig config;
  config.latency = LatencyModel::constant(10.0);
  config.jitter = 5.0;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  for (int i = 0; i < 1000; ++i) {
    const double latency =
        channel.send(meter, MessageClass::kWalkStep, 0, 1).latency;
    EXPECT_GE(latency, 10.0);
    EXPECT_LT(latency, 15.0);
  }
}

TEST(Channel, ArqGivesUpAfterRetriesChargingTimeouts) {
  NetworkConfig config;
  config.loss = 1.0;  // every transmission drops
  config.timeout = 30.0;
  config.retries = 2;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  const Channel::Delivery d =
      channel.send_arq(meter, MessageClass::kWalkStep, 0, 1);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.transmissions, 3u);  // first try + 2 retries
  EXPECT_DOUBLE_EQ(d.latency, 3 * 30.0);
  EXPECT_EQ(meter.of(MessageClass::kWalkStep), 3u);  // every copy counted
}

TEST(Channel, ArqRecoversFromLossWithinItsBudget) {
  NetworkConfig config;
  config.loss = 0.5;
  config.retries = 2;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  int delivered = 0;
  const int sends = 2000;
  for (int i = 0; i < sends; ++i) {
    if (channel.send_arq(meter, MessageClass::kWalkStep, 0, 1).delivered) {
      ++delivered;
    }
  }
  // P(delivered within 3 transmissions) = 1 - 0.5^3 = 0.875.
  EXPECT_NEAR(static_cast<double>(delivered) / sends, 0.875, 0.03);
}

TEST(Channel, ReliableSendAlwaysDeliversEvenUnderHeavyLoss) {
  NetworkConfig config;
  config.loss = 0.9;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  for (int i = 0; i < 200; ++i) {
    const Channel::Delivery d =
        channel.send_reliable(meter, MessageClass::kWalkStep, 0, 1);
    EXPECT_TRUE(d.delivered);
    EXPECT_GE(d.transmissions, 1u);
  }
  // ~10 transmissions per delivered message on average.
  EXPECT_GT(meter.of(MessageClass::kWalkStep), 1000u);
}

TEST(Channel, SameSeedSameConfigGivesIdenticalDeliverySequences) {
  NetworkConfig config;
  config.loss = 0.2;
  config.latency = LatencyModel::exponential(10.0);
  Channel a(config, support::RngStream(99));
  Channel b(config, support::RngStream(99));
  MessageMeter meter_a, meter_b;
  for (int i = 0; i < 500; ++i) {
    const Channel::Delivery da = a.send(meter_a, MessageClass::kWalkStep, 0, 1);
    const Channel::Delivery db = b.send(meter_b, MessageClass::kWalkStep, 0, 1);
    ASSERT_EQ(da.delivered, db.delivered);
    ASSERT_DOUBLE_EQ(da.latency, db.latency);
  }
}

TEST(Channel, SimulatorsWithTheSameSeedSeeTheSameChannel) {
  NetworkConfig config;
  config.loss = 0.3;
  Simulator a(net::Graph(4), 42), b(net::Graph(4), 42);
  a.set_network(config);
  b.set_network(config);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.send(MessageClass::kGossipSpread, 0, 1).delivered,
              b.send(MessageClass::kGossipSpread, 0, 1).delivered);
  }
}

TEST(Channel, ChannelRngIsASubstreamThatLeavesTheRootUntouched) {
  Simulator a(net::Graph(4), 42), b(net::Graph(4), 42);
  NetworkConfig config;
  config.loss = 0.5;
  a.set_network(config);  // b keeps the ideal default
  for (int i = 0; i < 100; ++i) (void)a.send(MessageClass::kWalkStep, 0, 1);
  // Installing + exercising the channel must not perturb the root stream
  // estimators and churn derive from.
  EXPECT_EQ(a.rng().uniform_real(), b.rng().uniform_real());
}

// --- Pinned delivery draws ---------------------------------------------------
// Every figure run under --net/--topo depends on the exact outcome of each
// send, so each discipline's outcomes are pinned by digest under an ideal, an
// i.i.d. lossy and two per-link channels (ideal and lossy `net:` knobs over a
// clustered topology).

enum class Discipline { kSend, kArq, kReliable };

std::uint64_t fold(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  return hash * 0x100000001b3ULL;
}

/// FNV-1a over 500 sends of one discipline — delivered flag, latency bits,
/// transmissions — then the channel's final counters and the meter total.
/// Endpoints come from their own stream, so the channel's draws are the
/// only ones the sends make.
std::uint64_t delivery_digest(Simulator& sim, Discipline discipline) {
  constexpr int kSends = 500;
  support::RngStream endpoints(2024);
  MessageMeter meter;
  Channel& channel = sim.channel();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < kSends; ++i) {
    const auto from = static_cast<net::NodeId>(
        endpoints.uniform_u64(sim.graph().slot_count()));
    const auto to = static_cast<net::NodeId>(
        endpoints.uniform_u64(sim.graph().slot_count()));
    Channel::Delivery d;
    switch (discipline) {
      case Discipline::kSend:
        d = channel.send(meter, MessageClass::kWalkStep, from, to);
        break;
      case Discipline::kArq:
        d = channel.send_arq(meter, MessageClass::kWalkStep, from, to);
        break;
      case Discipline::kReliable:
        d = channel.send_reliable(meter, MessageClass::kWalkStep, from, to);
        break;
    }
    hash = fold(hash, d.delivered ? 1 : 0);
    hash = fold(hash, std::bit_cast<std::uint64_t>(d.latency));
    hash = fold(hash, d.transmissions);
  }
  const Channel::Counters& c = channel.counters();
  for (const std::uint64_t value : {c.sends_iid, c.sends_link, c.drops,
                                    c.retransmits, c.arq_timeouts,
                                    meter.total()}) {
    hash = fold(hash, value);
  }
  return hash;
}

TEST(Channel, PinnedDeliveryDigests) {
  struct Case {
    const char* net;
    const char* topo;
    std::array<std::uint64_t, 3> digests;  // send, send_arq, send_reliable
  };
  const char* lossy = "net:loss=0.2,latency=exp:20,jitter=3,retries=1";
  const std::vector<Case> cases = {
      {"net",
       "topo:flat",
       {0x4fd24d73e7317035ULL, 0x4fd24d73e7317035ULL, 0x4fd24d73e7317035ULL}},
      {lossy,
       "topo:flat",
       {0x73b85b5c33e2e4eeULL, 0x841e43b8081c3601ULL, 0xc8ad869c96086f14ULL}},
      {"net",
       "topo:clustered",
       {0xd30d8fae9a73430eULL, 0x859142b959f24cddULL, 0x859142b959f24cddULL}},
      {lossy,
       "topo:clustered",
       {0x44258aeea21710b2ULL, 0x0ea5cb5bca8de46dULL, 0xb70f32c90574b8bcULL}},
  };
  for (const Case& c : cases) {
    for (const Discipline discipline :
         {Discipline::kSend, Discipline::kArq, Discipline::kReliable}) {
      SCOPED_TRACE(testing::Message()
                   << c.net << " " << c.topo << " discipline="
                   << static_cast<int>(discipline));
      Simulator sim(net::Graph(64), 11);
      sim.set_network(NetworkConfig::parse(c.net));
      sim.set_topology(topo::TopologyConfig::parse(c.topo));
      EXPECT_EQ(delivery_digest(sim, discipline),
                c.digests[static_cast<std::size_t>(discipline)]);
    }
  }
}

}  // namespace
}  // namespace p2pse::sim
