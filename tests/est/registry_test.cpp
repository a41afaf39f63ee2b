// EstimatorRegistry contract: every registered name round-trips through
// spec parsing + build + one real estimate, overrides reach the underlying
// configs, and typos (names or keys) are hard errors that list candidates.
#include "p2pse/est/registry.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string_view>

#include "p2pse/net/builders.hpp"
#include "p2pse/sim/simulator.hpp"

namespace p2pse::est {
namespace {

sim::Simulator small_sim(std::uint64_t seed = 11) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({300, 1, 6}, rng),
                        seed);
}

/// What every registry row reports at its defaults. The short names and
/// describe lines feed report ids and captions, so they are pinned exactly.
struct ExpectedRow {
  std::string_view name;
  std::string_view short_name;
  std::string_view display_name;
  Estimator::Mode mode;
  bool uses_channel;
  std::string_view describe;
};

constexpr ExpectedRow kExpectedRows[] = {
    {"aggregation", "agg", "Aggregation", Estimator::Mode::kEpoch, true,
     "rounds_per_epoch=50"},
    {"aggregation_suite", "suite", "MultiAggregation", Estimator::Mode::kEpoch,
     true, "rounds_per_epoch=50 instances=8 combine=median"},
    {"flat_polling", "poll", "Flat Polling", Estimator::Mode::kPoint, true,
     "p=0.05"},
    {"hops_sampling", "hs", "HopsSampling", Estimator::Mode::kPoint, true,
     "gossipTo=2 gossipFor=1 gossipUntil=1 minHopsReporting=5"},
    {"interval_density", "density", "Interval Density", Estimator::Mode::kPoint,
     false, "leafset=16"},
    {"inverted_birthday", "ibp", "Inverted Birthday", Estimator::Mode::kPoint,
     true, "walk_length=30 l=1"},
    {"random_tour", "tour", "Random Tour", Estimator::Mode::kPoint, true,
     "max_steps=67108864"},
    {"sample_collide", "sc", "Sample&Collide", Estimator::Mode::kPoint, true,
     "l=200 T=10"},
};

TEST(EstimatorRegistry, EveryNameBuildsAndProducesOneEstimate) {
  const auto& registry = EstimatorRegistry::global();
  const auto names = registry.names();
  ASSERT_EQ(names.size(), std::size(kExpectedRows));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& name = names[i];
    SCOPED_TRACE(name);
    const auto estimator = registry.build(name);
    ASSERT_NE(estimator, nullptr);
    const ExpectedRow& row = kExpectedRows[i];
    EXPECT_EQ(estimator->name(), row.name);
    EXPECT_EQ(estimator->short_name(), row.short_name);
    EXPECT_EQ(estimator->display_name(), row.display_name);
    EXPECT_EQ(estimator->mode(), row.mode);
    EXPECT_EQ(estimator->uses_channel(), row.uses_channel);
    EXPECT_EQ(estimator->describe(), row.describe);
    const auto copy = estimator->clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->name(), name);

    sim::Simulator sim = small_sim();
    support::RngStream rng(42);
    support::RngStream pick(43);
    const net::NodeId initiator = sim.graph().random_alive(pick);
    const Estimate e = copy->estimate(sim, initiator, rng);
    EXPECT_TRUE(e.valid);
    EXPECT_GT(e.value, 0.0);
    if (estimator->mode() == Estimator::Mode::kEpoch) {
      ASSERT_GT(copy->rounds_per_epoch(), 0u);
      // A full epoch on a static 300-node overlay converges tightly.
      EXPECT_NEAR(e.value, 300.0, 60.0);
    }
  }
}

TEST(EstimatorRegistry, SpecParsingRoundTrips) {
  const EstimatorSpec spec = EstimatorSpec::parse("sample_collide:l=10,T=2");
  EXPECT_EQ(spec.name, "sample_collide");
  ASSERT_EQ(spec.overrides.size(), 2u);
  EXPECT_TRUE(spec.has("l"));
  EXPECT_TRUE(spec.has("T"));
  EXPECT_EQ(spec.canonical(), "sample_collide:l=10,T=2");

  const EstimatorSpec bare = EstimatorSpec::parse("aggregation");
  EXPECT_EQ(bare.name, "aggregation");
  EXPECT_TRUE(bare.overrides.empty());
  EXPECT_EQ(bare.canonical(), "aggregation");
}

TEST(EstimatorRegistry, SetDefaultDoesNotOverrideExplicitKeys) {
  EstimatorSpec spec = EstimatorSpec::parse("sample_collide:l=10");
  spec.set_default("l", "200");
  spec.set_default("T", "10");
  const auto estimator = EstimatorRegistry::global().build(spec);
  EXPECT_EQ(estimator->describe(), "l=10 T=10");
}

TEST(EstimatorRegistry, OverridesReachTheUnderlyingConfigs) {
  const auto& registry = EstimatorRegistry::global();
  EXPECT_EQ(registry.build("sample_collide:l=33,T=2.5")->describe(),
            "l=33 T=2.5");
  EXPECT_EQ(registry.build("aggregation:rounds=7")->rounds_per_epoch(), 7u);
  EXPECT_EQ(registry.build("aggregation_suite:rounds=9,instances=4")
                ->rounds_per_epoch(),
            9u);
  EXPECT_EQ(registry.build("hops_sampling:last_k=4")->describe(),
            "gossipTo=2 gossipFor=1 gossipUntil=1 minHopsReporting=5 lastK=4");
  EXPECT_EQ(registry.build("flat_polling:p=0.5")->describe(), "p=0.5");
}

TEST(EstimatorRegistry, UnknownNameListsCandidates) {
  try {
    (void)EstimatorRegistry::global().build("sample_colide");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sample_collide"), std::string::npos);
    EXPECT_NE(what.find("aggregation"), std::string::npos);
  }
}

TEST(EstimatorRegistry, UnknownKeyListsValidKeys) {
  try {
    (void)EstimatorRegistry::global().build("sample_collide:collisions=10");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("collisions"), std::string::npos);
    EXPECT_NE(what.find("l, T, estimator"), std::string::npos);
  }
}

TEST(EstimatorRegistry, MalformedValuesAreHardErrors) {
  EXPECT_THROW((void)EstimatorRegistry::global().build("sample_collide:l=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)EstimatorRegistry::global().build("sample_collide:l"),
               std::invalid_argument);
  EXPECT_THROW((void)EstimatorRegistry::global().build(""),
               std::invalid_argument);
  EXPECT_THROW(
      (void)EstimatorRegistry::global().build("aggregation_suite:combine=max"),
      std::invalid_argument);
}

TEST(EstimatorRegistry, ClonedSmoothingStateIsIndependent) {
  // A cloned HopsSampling estimator must not share its lastKruns window with
  // the prototype — replicas would otherwise contaminate each other.
  const auto proto = EstimatorRegistry::global().build("hops_sampling:last_k=3");
  sim::Simulator sim = small_sim();
  support::RngStream rng(5);
  support::RngStream pick(6);
  const net::NodeId initiator = sim.graph().random_alive(pick);

  const auto a = proto->clone();
  const Estimate first = a->estimate_point(sim, initiator, rng);
  // Feed `a` more samples so its window diverges from a fresh clone's.
  (void)a->estimate_point(sim, initiator, rng);
  (void)a->estimate_point(sim, initiator, rng);

  const auto b = proto->clone();
  support::RngStream rng2(5);
  sim::Simulator sim2 = small_sim();
  const Estimate fresh = b->estimate_point(sim2, initiator, rng2);
  EXPECT_DOUBLE_EQ(fresh.value, first.value);
}

TEST(EstimatorRegistry, KeysHelpKnowsEveryName) {
  const auto& registry = EstimatorRegistry::global();
  for (const auto& name : registry.names()) {
    EXPECT_FALSE(registry.keys_help(name).empty()) << name;
  }
  EXPECT_THROW((void)registry.keys_help("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace p2pse::est
