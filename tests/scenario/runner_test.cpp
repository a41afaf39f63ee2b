#include "p2pse/scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/estimator.hpp"
#include "p2pse/est/registry.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/harness/parallel_runner.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/obs/telemetry.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::scenario {
namespace {

GraphFactory factory(std::size_t nodes) {
  return [nodes](support::RngStream& rng) {
    return net::build_heterogeneous_random({nodes, 1, 10}, rng);
  };
}

est::SampleCollide sample_collide_estimator(std::uint32_t l) {
  return est::SampleCollide({.timer = 10.0, .collisions = l});
}

TEST(ScenarioRunner, RequiresFactory) {
  EXPECT_THROW(ScenarioRunner(static_script(), nullptr, 1),
               std::invalid_argument);
}

TEST(ScenarioRunner, ProducesRequestedNumberOfPoints) {
  const ScenarioRunner runner(static_script(), factory(2000), 1);
  const Series series = runner.run(sample_collide_estimator(10), {.estimations = 20});
  ASSERT_EQ(series.size(), 20u);
  for (const auto& p : series) {
    EXPECT_DOUBLE_EQ(p.truth, 2000.0);
    EXPECT_TRUE(p.valid);
    EXPECT_GT(p.messages, 0u);
  }
}

TEST(ScenarioRunner, ZeroEstimationsGivesEmptySeries) {
  const ScenarioRunner runner(static_script(), factory(100), 2);
  EXPECT_TRUE(runner.run(sample_collide_estimator(5), {.estimations = 0}).empty());
}

TEST(ScenarioRunner, TimesAreEvenlySpaced) {
  const ScenarioRunner runner(static_script(), factory(500), 3);
  const Series series = runner.run(sample_collide_estimator(5), {.estimations = 10});
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[i].time,
                     100.0 * static_cast<double>(i + 1));
  }
}

TEST(ScenarioRunner, TruthTracksShrinkingScenario) {
  const ScenarioRunner runner(shrinking_script(2000), factory(2000), 4);
  const Series series = runner.run(sample_collide_estimator(10), {.estimations = 10});
  ASSERT_EQ(series.size(), 10u);
  EXPECT_NEAR(series.front().truth, 1900.0, 3.0);
  EXPECT_NEAR(series.back().truth, 1000.0, 3.0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LT(series[i].truth, series[i - 1].truth);
  }
}

TEST(ScenarioRunner, SameReplicaIsDeterministic) {
  const ScenarioRunner runner(growing_script(1000), factory(1000), 5);
  const Series a = runner.run(sample_collide_estimator(10), {.estimations = 8}, 2);
  const Series b = runner.run(sample_collide_estimator(10), {.estimations = 8}, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate);
    EXPECT_DOUBLE_EQ(a[i].truth, b[i].truth);
    EXPECT_EQ(a[i].messages, b[i].messages);
  }
}

TEST(ScenarioRunner, DifferentReplicasDiffer) {
  const ScenarioRunner runner(static_script(), factory(1000), 6);
  const Series a = runner.run(sample_collide_estimator(10), {.estimations = 5}, 0);
  const Series b = runner.run(sample_collide_estimator(10), {.estimations = 5}, 1);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= (a[i].estimate != b[i].estimate);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioRunner, ParallelReplicasPreserveOrderAndDeterminism) {
  const ScenarioRunner runner(static_script(), factory(500), 7);
  const harness::ParallelReplicaRunner pool(4);
  const auto runs = pool.map<Series>(4, [&](std::size_t r) {
    return runner.run(sample_collide_estimator(5), {.estimations = 3},
                      static_cast<std::uint64_t>(r));
  });
  ASSERT_EQ(runs.size(), 4u);
  // Replica 2 recomputed sequentially must match the parallel result.
  const Series replay = runner.run(sample_collide_estimator(5), {.estimations = 3}, 2);
  ASSERT_EQ(runs[2].size(), replay.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    EXPECT_DOUBLE_EQ(runs[2][i].estimate, replay[i].estimate);
  }
}

TEST(ScenarioRunner, UnifiedRunMatchesRunPointForPointEstimators) {
  // A directly constructed class and the registry-built spec with the same
  // configuration consume the exact same RNG streams: the series are
  // bit-identical.
  const ScenarioRunner runner(growing_script(1000), factory(1000), 12);
  const est::SampleCollide proto({.timer = 10.0, .collisions = 10});
  const Series unified = runner.run(proto, {.estimations = 8}, 1);
  const Series built = runner.run(
      *est::EstimatorRegistry::global().build("sample_collide:l=10,T=10"),
      {.estimations = 8}, 1);
  ASSERT_EQ(unified.size(), built.size());
  for (std::size_t i = 0; i < unified.size(); ++i) {
    EXPECT_DOUBLE_EQ(unified[i].estimate, built[i].estimate);
    EXPECT_DOUBLE_EQ(unified[i].truth, built[i].truth);
    EXPECT_EQ(unified[i].messages, built[i].messages);
  }
}

TEST(ScenarioRunner, UnifiedRunDrivesRegistryBuiltEstimators) {
  const ScenarioRunner runner(static_script(), factory(800), 13);
  const auto proto =
      est::EstimatorRegistry::global().build("sample_collide:l=5,T=2");
  const Series series = runner.run(*proto, {.estimations = 5}, 0);
  ASSERT_EQ(series.size(), 5u);
  for (const auto& p : series) EXPECT_TRUE(p.valid);
}

TEST(ScenarioRunner, AggregationSeriesOnePointPerEpoch) {
  const ScenarioRunner runner(static_script(), factory(1000), 8);
  // 1 round per unit, epoch = 50 rounds, duration 1000 -> 20 epochs.
  const est::Aggregation agg({.rounds_per_epoch = 50});
  const Series series =
      runner.run(agg, {.estimations = 0, .rounds_per_unit = 1.0}, 0);
  ASSERT_EQ(series.size(), 20u);
  for (const auto& p : series) {
    EXPECT_TRUE(p.valid);
    EXPECT_NEAR(p.estimate, 1000.0, 50.0);
    // Overhead per epoch ~ 2 * N * rounds.
    EXPECT_NEAR(static_cast<double>(p.messages), 2.0 * 1000.0 * 50.0,
                0.05 * 2.0 * 1000.0 * 50.0);
  }
}

TEST(ScenarioRunner, EpochModeRejectsNonPositiveRate) {
  const ScenarioRunner runner(static_script(), factory(100), 9);
  const est::Aggregation agg({.rounds_per_epoch = 10});
  EXPECT_THROW(
      (void)runner.run(agg, {.estimations = 0, .rounds_per_unit = 0.0}, 0),
      std::invalid_argument);
}

TEST(ScenarioRunner, EpochModeRejectsNonFiniteOrOverflowingRate) {
  // NaN passes a plain `<= 0` test and 1e300 overflows llround; either
  // would leave the round loop without a usable bound.
  const ScenarioRunner runner(static_script(), factory(100), 9);
  const est::Aggregation agg({.rounds_per_epoch = 10});
  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), 1e300}) {
    EXPECT_THROW(
        (void)runner.run(agg, {.estimations = 0, .rounds_per_unit = rate}, 0),
        std::invalid_argument)
        << rate;
  }
}

TEST(ScenarioRunner, AggregationTracksGrowth) {
  const ScenarioRunner runner(growing_script(1000), factory(1000), 10);
  const est::Aggregation agg({.rounds_per_epoch = 50});
  const Series series =
      runner.run(agg, {.estimations = 0, .rounds_per_unit = 1.0}, 0);
  ASSERT_FALSE(series.empty());
  // Later epochs must see a larger network than early epochs.
  EXPECT_GT(series.back().estimate, series.front().estimate * 1.2);
  EXPECT_NEAR(series.back().estimate, series.back().truth,
              0.15 * series.back().truth);
}

TEST(ScenarioRunner, WrongModeCallsThrowLogicError) {
  est::Aggregation epoch_only({.rounds_per_epoch = 10});
  est::SampleCollide point_only({.timer = 1.0, .collisions = 5});
  support::RngStream rng(1);
  sim::Simulator sim(net::build_heterogeneous_random({50, 1, 4}, rng), 2);
  EXPECT_THROW((void)epoch_only.estimate_point(sim, 0, rng),
               std::logic_error);
  EXPECT_THROW(point_only.start_epoch(sim, 0, rng), std::logic_error);
  EXPECT_THROW(point_only.run_round(sim, rng), std::logic_error);
  EXPECT_THROW((void)point_only.epoch_estimate(sim, 0), std::logic_error);
}

TEST(ScenarioRunner, SurvivesExtinctionScenario) {
  // Drive departures so hard the overlay dies: the runner must not crash and
  // must stop emitting points once the graph is empty.
  ScenarioScript script = static_script();
  script.initial_departure_rate = 10.0;  // kills 1000 nodes well before t=1000
  const ScenarioRunner runner(script, factory(1000), 11);
  const Series series = runner.run(sample_collide_estimator(5), {.estimations = 20});
  ASSERT_EQ(series.size(), 20u);
  EXPECT_DOUBLE_EQ(series.back().truth, 0.0);
  EXPECT_FALSE(series.back().valid);
}

struct TraceRecord {
  std::string name;
  int tid = 0;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
};

std::vector<TraceRecord> trace_records(const obs::RunTelemetry& telemetry) {
  std::ostringstream out;
  telemetry.trace().write(out);
  const std::string json = out.str();
  const std::regex event(
      R"re(\{"name":"([^"]*)","ph":"X","pid":1,"tid":(\d+),"ts":(\d+),"dur":(\d+)\})re");
  std::vector<TraceRecord> records;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), event);
       it != std::sregex_iterator(); ++it) {
    records.push_back({(*it)[1], std::stoi((*it)[2]), std::stoull((*it)[3]),
                       std::stoull((*it)[4])});
  }
  return records;
}

TEST(ScenarioRunner, SimulateSpansExcludeReplicaSetup) {
  // host.phases_s sums spans by name, so a graph-build or topo-embed span
  // nested in "simulate" would count the setup twice.
  obs::RunTelemetry telemetry;
  RunOptions options;
  options.telemetry = &telemetry;
  options.topology = topo::TopologyConfig::parse("topo:clustered,regions=4");
  const ScenarioRunner runner(static_script(), factory(2000), 17);
  const est::SampleCollide sc({.timer = 2.0, .collisions = 5});
  options.estimations = 2;
  (void)runner.run(sc, options, 0);
  const est::Aggregation agg({.rounds_per_epoch = 5});
  options.rounds_per_unit = 0.01;
  (void)runner.run(agg, options, 1);

  const std::vector<TraceRecord> records = trace_records(telemetry);
  std::size_t simulate = 0;
  std::size_t setup = 0;
  for (const TraceRecord& sim_span : records) {
    if (sim_span.name != "simulate") continue;
    ++simulate;
    for (const TraceRecord& inner : records) {
      if (inner.tid != sim_span.tid ||
          (inner.name != "graph-build" && inner.name != "topo-embed")) {
        continue;
      }
      ++setup;
      EXPECT_TRUE(inner.ts + inner.dur <= sim_span.ts ||
                  inner.ts >= sim_span.ts + sim_span.dur)
          << inner.name << " [" << inner.ts << ", +" << inner.dur
          << "] overlaps simulate [" << sim_span.ts << ", +" << sim_span.dur
          << "] on lane " << sim_span.tid;
    }
  }
  EXPECT_EQ(simulate, 2u);
  EXPECT_EQ(setup, 4u);  // one graph-build and one topo-embed per replica
}

}  // namespace
}  // namespace p2pse::scenario
