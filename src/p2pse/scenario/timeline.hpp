#pragma once
// Scenario timeline: the paper drives all three algorithms with the same
// membership dynamics (§IV-D). A ScenarioScript is a declarative schedule on
// a [0, duration] time axis — discrete events (bulk failures / growth
// bursts) plus piecewise-constant arrival/departure rates. A ScenarioCursor
// binds the script to one overlay + RNG and advances simulated time,
// applying churn as it goes, so every estimator sees identical dynamics.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "p2pse/net/churn.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/scenario/dynamics.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::scenario {

/// A discrete membership change at a fixed scenario time.
struct TimelineEvent {
  double time = 0.0;
  enum class Kind {
    kRemoveFraction,  ///< remove `fraction` of the current population
    kAddNodes,        ///< add `count` freshly wired nodes
    kSetRates,        ///< change continuous arrival/departure rates
  } kind = Kind::kRemoveFraction;
  double fraction = 0.0;       ///< kRemoveFraction
  std::size_t count = 0;       ///< kAddNodes
  double arrival_rate = 0.0;   ///< kSetRates (nodes per time unit)
  double departure_rate = 0.0; ///< kSetRates
};

struct ScenarioScript {
  std::string name = "static";
  double duration = 1000.0;
  double initial_arrival_rate = 0.0;
  double initial_departure_rate = 0.0;
  net::JoinPolicy join_policy{};
  /// Must be sorted by time (validated by ScenarioCursor).
  std::vector<TimelineEvent> events;
};

class ScenarioCursor final : public DynamicsCursor {
 public:
  /// Throws std::invalid_argument if the script's events are unsorted or
  /// outside [0, duration].
  ScenarioCursor(const ScenarioScript& script, net::Graph& graph,
                 support::RngStream rng);

  /// Advances scenario time to `t` (clamped to the script duration),
  /// applying continuous churn and any discrete events passed on the way.
  void advance_to(double t) override;

  [[nodiscard]] double now() const noexcept override { return now_; }
  [[nodiscard]] const ScenarioScript& script() const noexcept {
    return *script_;
  }

 private:
  void apply(const TimelineEvent& event);

  const ScenarioScript* script_;
  net::Graph* graph_;
  support::RngStream rng_;
  net::ConstantChurn churn_;
  std::size_t next_event_ = 0;
  double now_ = 0.0;
};

/// Dynamics adapter over a ScenarioScript: every named paper scenario is one
/// of these; trace-driven workloads provide their own Dynamics in trace/.
class ScriptDynamics final : public Dynamics {
 public:
  explicit ScriptDynamics(ScenarioScript script) : script_(std::move(script)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return script_.name;
  }
  [[nodiscard]] double duration() const noexcept override {
    return script_.duration;
  }
  [[nodiscard]] std::unique_ptr<DynamicsCursor> bind(
      net::Graph& graph, support::RngStream rng) const override {
    return std::make_unique<ScenarioCursor>(script_, graph, rng);
  }
  [[nodiscard]] const ScenarioScript& script() const noexcept {
    return script_;
  }

 private:
  ScenarioScript script_;
};

}  // namespace p2pse::scenario
