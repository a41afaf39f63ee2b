#include "p2pse/scenario/scenarios.hpp"

#include <stdexcept>
#include <string>

#include "p2pse/trace/workloads.hpp"

namespace p2pse::scenario {

ScenarioScript static_script() {
  ScenarioScript script;
  script.name = "static";
  script.duration = kScenarioDuration;
  return script;
}

ScenarioScript catastrophic_script(std::size_t initial_nodes) {
  ScenarioScript script;
  script.name = "catastrophic";
  script.duration = kScenarioDuration;
  TimelineEvent first;
  first.time = 100.0;
  first.kind = TimelineEvent::Kind::kRemoveFraction;
  first.fraction = 0.25;
  TimelineEvent second = first;
  second.time = 500.0;
  TimelineEvent burst;
  burst.time = 700.0;
  burst.kind = TimelineEvent::Kind::kAddNodes;
  burst.count = initial_nodes / 4;  // paper: +25 000 on a 1e5 overlay
  script.events = {first, second, burst};
  return script;
}

ScenarioScript growing_script(std::size_t initial_nodes) {
  ScenarioScript script;
  script.name = "growing";
  script.duration = kScenarioDuration;
  script.initial_arrival_rate =
      0.5 * static_cast<double>(initial_nodes) / kScenarioDuration;
  return script;
}

ScenarioScript shrinking_script(std::size_t initial_nodes) {
  ScenarioScript script;
  script.name = "shrinking";
  script.duration = kScenarioDuration;
  script.initial_departure_rate =
      0.5 * static_cast<double>(initial_nodes) / kScenarioDuration;
  return script;
}

ScenarioScript oscillating_script(std::size_t initial_nodes,
                                  std::size_t cycles, double amplitude) {
  ScenarioScript script;
  script.name = "oscillating";
  script.duration = kScenarioDuration;
  if (cycles == 0) return script;
  // Each cycle: half-phase of growth at +rate, half-phase of decay at -rate,
  // with rate chosen so each phase moves the population by `amplitude`.
  const double phase = kScenarioDuration / (2.0 * static_cast<double>(cycles));
  const double rate =
      amplitude * static_cast<double>(initial_nodes) / phase;
  script.initial_arrival_rate = rate;
  for (std::size_t c = 0; c < 2 * cycles; ++c) {
    const bool grow_next = (c % 2) == 1;  // after phase 0 (growth) comes decay
    TimelineEvent flip;
    flip.time = phase * static_cast<double>(c + 1);
    flip.kind = TimelineEvent::Kind::kSetRates;
    flip.arrival_rate = grow_next ? rate : 0.0;
    flip.departure_rate = grow_next ? 0.0 : rate;
    script.events.push_back(flip);
  }
  return script;
}

namespace {

// Single source of truth for the named-scenario axis: scenario_names() and
// script_by_name() both iterate this table, so the two can never drift.
struct NamedScenario {
  std::string_view name;
  ScenarioScript (*build)(std::size_t initial_nodes);
};

constexpr NamedScenario kNamedScenarios[] = {
    {"static", [](std::size_t) { return static_script(); }},
    {"catastrophic", [](std::size_t n) { return catastrophic_script(n); }},
    {"growing", [](std::size_t n) { return growing_script(n); }},
    {"shrinking", [](std::size_t n) { return shrinking_script(n); }},
    {"oscillating", [](std::size_t n) { return oscillating_script(n); }},
};

}  // namespace

const std::vector<std::string_view>& scenario_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const NamedScenario& scenario : kNamedScenarios) {
      out.push_back(scenario.name);
    }
    return out;
  }();
  return names;
}

namespace {

const NamedScenario* find_script(std::string_view name) {
  for (const NamedScenario& scenario : kNamedScenarios) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

/// "unknown scenario 'NAME' (valid: static, ..." then `more` and ")".
std::invalid_argument unknown_scenario(std::string_view name,
                                       std::string_view more) {
  std::string message = "unknown scenario '";
  message.append(name).append("' (valid: ");
  std::string_view separator;
  for (const std::string_view candidate : scenario_names()) {
    message.append(separator).append(candidate);
    separator = ", ";
  }
  message.append(more).append(")");
  return std::invalid_argument(message);
}

}  // namespace

ScenarioScript script_by_name(std::string_view name,
                              std::size_t initial_nodes) {
  if (const NamedScenario* scenario = find_script(name)) {
    return scenario->build(initial_nodes);
  }
  throw unknown_scenario(name, "");
}

std::shared_ptr<const Dynamics> workload_by_name(std::string_view name,
                                                 std::size_t initial_nodes) {
  if (name.substr(0, kTraceWorkloadPrefix.size()) == kTraceWorkloadPrefix) {
    return trace::workload_from_spec(
        name.substr(kTraceWorkloadPrefix.size()), initial_nodes);
  }
  if (const NamedScenario* scenario = find_script(name)) {
    return std::make_shared<ScriptDynamics>(scenario->build(initial_nodes));
  }
  throw unknown_scenario(name, ", or a trace workload 'trace:MODEL,...'");
}

}  // namespace p2pse::scenario
