#include "p2pse/scenario/timeline.hpp"

#include <gtest/gtest.h>

#include "p2pse/net/builders.hpp"
#include "p2pse/scenario/scenarios.hpp"

namespace p2pse::scenario {
namespace {

net::Graph overlay(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return net::build_heterogeneous_random({n, 1, 10}, rng);
}

TEST(ScenarioCursor, StaticScriptLeavesGraphUntouched) {
  net::Graph g = overlay(1000, 1);
  ScenarioScript script = static_script();
  ScenarioCursor cursor(script, g, support::RngStream(2));
  cursor.advance_to(1000.0);
  EXPECT_EQ(g.size(), 1000u);
  EXPECT_EQ(cursor.now(), script.duration);
}

TEST(ScenarioCursor, RejectsUnsortedEvents) {
  net::Graph g = overlay(20, 3);
  ScenarioScript script = static_script();
  TimelineEvent late, early;
  late.time = 500.0;
  early.time = 100.0;
  script.events = {late, early};
  EXPECT_THROW(ScenarioCursor(script, g, support::RngStream(4)),
               std::invalid_argument);
}

TEST(ScenarioCursor, RejectsEventsBeyondDuration) {
  net::Graph g = overlay(20, 5);
  ScenarioScript script = static_script();
  TimelineEvent event;
  event.time = script.duration + 1.0;
  script.events = {event};
  EXPECT_THROW(ScenarioCursor(script, g, support::RngStream(6)),
               std::invalid_argument);
}

TEST(ScenarioCursor, CatastrophicScheduleMatchesFig15Caption) {
  // -25% at t=100, -25% at t=500, +initial/4 at t=700.
  net::Graph g = overlay(10000, 7);
  const ScenarioScript script = catastrophic_script(10000);
  ScenarioCursor cursor(script, g, support::RngStream(8));

  cursor.advance_to(99.0);
  EXPECT_EQ(g.size(), 10000u);
  cursor.advance_to(100.0);
  EXPECT_EQ(g.size(), 7500u);
  cursor.advance_to(499.0);
  EXPECT_EQ(g.size(), 7500u);
  cursor.advance_to(500.0);
  EXPECT_EQ(g.size(), 5625u);  // -25% of 7500
  cursor.advance_to(700.0);
  EXPECT_EQ(g.size(), 8125u);  // +2500
  cursor.advance_to(1000.0);
  EXPECT_EQ(g.size(), 8125u);
}

TEST(ScenarioCursor, GrowingScriptReachesPlusFiftyPercent) {
  net::Graph g = overlay(2000, 9);
  const ScenarioScript script = growing_script(2000);
  ScenarioCursor cursor(script, g, support::RngStream(10));
  cursor.advance_to(500.0);
  EXPECT_NEAR(static_cast<double>(g.size()), 2500.0, 2.0);
  cursor.advance_to(1000.0);
  EXPECT_NEAR(static_cast<double>(g.size()), 3000.0, 2.0);
}

TEST(ScenarioCursor, ShrinkingScriptReachesMinusFiftyPercent) {
  net::Graph g = overlay(2000, 11);
  const ScenarioScript script = shrinking_script(2000);
  ScenarioCursor cursor(script, g, support::RngStream(12));
  cursor.advance_to(1000.0);
  EXPECT_NEAR(static_cast<double>(g.size()), 1000.0, 2.0);
}

TEST(ScenarioCursor, ManySmallStepsEqualOneBigStep) {
  net::Graph g1 = overlay(3000, 13);
  net::Graph g2 = overlay(3000, 13);
  const ScenarioScript script = shrinking_script(3000);
  ScenarioCursor fine(script, g1, support::RngStream(14));
  ScenarioCursor coarse(script, g2, support::RngStream(14));
  for (int t = 1; t <= 1000; ++t) fine.advance_to(static_cast<double>(t));
  coarse.advance_to(1000.0);
  EXPECT_EQ(g1.size(), g2.size());
}

TEST(ScenarioCursor, AdvancePastDurationClamps) {
  net::Graph g = overlay(100, 15);
  const ScenarioScript script = growing_script(100);
  ScenarioCursor cursor(script, g, support::RngStream(16));
  cursor.advance_to(99999.0);
  EXPECT_DOUBLE_EQ(cursor.now(), script.duration);
  EXPECT_NEAR(static_cast<double>(g.size()), 150.0, 2.0);
}

TEST(ScenarioCursor, SetRatesEventSwitchesChurn) {
  net::Graph g = overlay(1000, 17);
  ScenarioScript script = static_script();
  TimelineEvent switch_on;
  switch_on.time = 500.0;
  switch_on.kind = TimelineEvent::Kind::kSetRates;
  switch_on.arrival_rate = 10.0;
  switch_on.departure_rate = 0.0;
  script.events = {switch_on};
  ScenarioCursor cursor(script, g, support::RngStream(18));
  cursor.advance_to(500.0);
  EXPECT_EQ(g.size(), 1000u);
  cursor.advance_to(600.0);
  EXPECT_NEAR(static_cast<double>(g.size()), 2000.0, 11.0);
}

TEST(ScenarioCursor, OscillatingScriptSwingsAroundInitialSize) {
  net::Graph g = overlay(4000, 19);
  const ScenarioScript script = oscillating_script(4000, 4, 0.25);
  ScenarioCursor cursor(script, g, support::RngStream(20));
  // First half-phase (125 units at 4 cycles): +25% growth.
  cursor.advance_to(125.0);
  EXPECT_NEAR(static_cast<double>(g.size()), 5000.0, 15.0);
  // Second half-phase: back down by the same amount.
  cursor.advance_to(250.0);
  EXPECT_NEAR(static_cast<double>(g.size()), 4000.0, 30.0);
  // Full run ends near the starting size after whole cycles.
  cursor.advance_to(1000.0);
  EXPECT_NEAR(static_cast<double>(g.size()), 4000.0, 80.0);
}

TEST(ScenarioCursor, OscillatingZeroCyclesIsStatic) {
  net::Graph g = overlay(100, 21);
  const ScenarioScript script = oscillating_script(100, 0);
  ScenarioCursor cursor(script, g, support::RngStream(22));
  cursor.advance_to(1000.0);
  EXPECT_EQ(g.size(), 100u);
}

TEST(ScenarioCursor, SetRatesEventCarriesFractionalCredit) {
  // Regression: kSetRates used to rebuild ConstantChurn, dropping the
  // accumulated fractional credit at every event — a systematic under-churn
  // in rate-flipping scripts. With 0.45 arrivals/unit re-asserted by an
  // event at every integer time, 10 units must yield floor(4.5) = 4
  // arrivals, not 0.
  net::Graph g = overlay(100, 23);
  ScenarioScript script = static_script();
  script.duration = 10.0;
  script.initial_arrival_rate = 0.45;
  for (int t = 1; t <= 9; ++t) {
    TimelineEvent event;
    event.time = static_cast<double>(t);
    event.kind = TimelineEvent::Kind::kSetRates;
    event.arrival_rate = 0.45;
    event.departure_rate = 0.0;
    script.events.push_back(event);
  }
  ScenarioCursor cursor(script, g, support::RngStream(24));
  for (int t = 1; t <= 10; ++t) cursor.advance_to(static_cast<double>(t));
  EXPECT_EQ(g.size(), 104u);
}

TEST(ScriptDynamics, BindsCursorsEquivalentToDirectConstruction) {
  const ScenarioScript script = shrinking_script(1500);
  const ScriptDynamics dynamics(script);
  EXPECT_EQ(dynamics.name(), "shrinking");
  EXPECT_DOUBLE_EQ(dynamics.duration(), kScenarioDuration);
  EXPECT_FALSE(dynamics.initial_size().has_value());

  net::Graph bound = overlay(1500, 25);
  net::Graph direct = overlay(1500, 25);
  const auto cursor = dynamics.bind(bound, support::RngStream(26));
  ScenarioCursor reference(script, direct, support::RngStream(26));
  cursor->advance_to(500.0);
  reference.advance_to(500.0);
  EXPECT_EQ(bound.size(), direct.size());
  EXPECT_DOUBLE_EQ(cursor->now(), reference.now());
}

TEST(Scenarios, ScriptNamesAndDurations) {
  EXPECT_EQ(static_script().name, "static");
  EXPECT_EQ(catastrophic_script(100).name, "catastrophic");
  EXPECT_EQ(growing_script(100).name, "growing");
  EXPECT_EQ(shrinking_script(100).name, "shrinking");
  EXPECT_DOUBLE_EQ(growing_script(100).duration, kScenarioDuration);
}

}  // namespace
}  // namespace p2pse::scenario
