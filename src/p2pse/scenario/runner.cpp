#include "p2pse/scenario/runner.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "p2pse/obs/telemetry.hpp"
#include "p2pse/support/csv.hpp"

namespace p2pse::scenario {
namespace {

/// A replica's trace lane: its index + 1 (lane 0 is the coordinating
/// thread).
int replica_lane(std::uint64_t replica) {
  return static_cast<int>(replica) + 1;
}

/// Opens a per-replica trace span (inert when telemetry is off).
obs::Span replica_span(obs::RunTelemetry* telemetry, const char* name,
                       std::uint64_t replica) {
  if (telemetry == nullptr) return obs::Span{};
  return telemetry->span(name, replica_lane(replica));
}

void tick_progress(obs::RunTelemetry* telemetry, std::uint64_t replica,
                   double t, std::size_t alive) {
  if (telemetry == nullptr || !telemetry->progress_enabled()) return;
  telemetry->progress("replica " + std::to_string(replica) +
                      ": t=" + std::to_string(t) +
                      " alive=" + std::to_string(alive));
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioScript script, GraphFactory factory,
                               std::uint64_t seed)
    : ScenarioRunner(std::make_shared<ScriptDynamics>(std::move(script)),
                     std::move(factory), seed) {}

ScenarioRunner::ScenarioRunner(std::shared_ptr<const Dynamics> dynamics,
                               GraphFactory factory, std::uint64_t seed)
    : dynamics_(std::move(dynamics)), factory_(std::move(factory)),
      seed_(seed) {
  if (!dynamics_) {
    throw std::invalid_argument("ScenarioRunner: dynamics is required");
  }
  if (!factory_) {
    throw std::invalid_argument("ScenarioRunner: graph factory is required");
  }
}

net::NodeId ScenarioRunner::ensure_initiator(const net::Graph& graph,
                                             net::NodeId current,
                                             support::RngStream& rng) const {
  if (graph.is_alive(current)) return current;
  return graph.random_alive(rng);
}

Series ScenarioRunner::run(const est::Estimator& prototype,
                           const RunOptions& options,
                           std::uint64_t replica) const {
  const std::unique_ptr<est::Estimator> instance = prototype.clone();
  if (instance->mode() == est::Estimator::Mode::kPoint) {
    return run_point(*instance, options, replica);
  }
  return run_epochs(*instance, options, replica);
}

Series ScenarioRunner::run_point(est::Estimator& estimator,
                                 const RunOptions& options,
                                 std::uint64_t replica) const {
  const std::size_t estimations = options.estimations;
  if (estimations == 0) return {};
  obs::RunTelemetry* const telemetry = options.telemetry;
  const support::RngStream root = support::RngStream(seed_).split("replica", replica);
  support::RngStream churn_rng = root.split("churn");
  support::RngStream est_rng = root.split("estimator");
  support::RngStream pick_rng = root.split("initiator");
  Replica setup(options, factory_, root, 0, replica_lane(replica));
  // Opened after setup: graph-build and topo-embed are their own phases.
  const obs::Span span = replica_span(telemetry, "simulate", replica);
  sim::Simulator& sim = setup.sim();
  const std::unique_ptr<DynamicsCursor> cursor =
      dynamics_->bind(sim.graph(), churn_rng);

  const double interval =
      dynamics_->duration() / static_cast<double>(estimations);
  net::NodeId initiator = sim.graph().random_alive(pick_rng);

  Series series;
  series.reserve(estimations);
  for (std::size_t i = 1; i <= estimations; ++i) {
    const double t = interval * static_cast<double>(i);
    cursor->advance_to(t);
    sim.advance_to(t);
    SeriesPoint point;
    point.time = t;
    point.truth = static_cast<double>(sim.graph().size());
    if (sim.graph().empty()) {
      point.valid = false;
      series.push_back(point);
      continue;
    }
    initiator = ensure_initiator(sim.graph(), initiator, pick_rng);
    const est::Estimate e = estimator.estimate_point(sim, initiator, est_rng);
    point.estimate = e.value;
    point.valid = e.valid;
    point.messages = e.messages;
    point.delay = e.delay;
    series.push_back(point);
    tick_progress(telemetry, replica, t, sim.graph().size());
  }
  return series;
}

Series ScenarioRunner::run_epochs(est::Estimator& estimator,
                                  const RunOptions& options,
                                  std::uint64_t replica) const {
  const double rounds_per_unit = options.rounds_per_unit;
  if (!(std::isfinite(rounds_per_unit) && rounds_per_unit > 0.0)) {
    throw std::invalid_argument(
        "ScenarioRunner: rounds_per_unit must be finite and > 0");
  }
  // llround's result must fit a long long; 2^63 is exactly representable.
  const double rounds = dynamics_->duration() * rounds_per_unit;
  if (!(rounds < 0x1p63)) {
    throw std::invalid_argument(
        "ScenarioRunner: rounds_per_unit " +
        support::format_double(rounds_per_unit) +
        " gives a round count past 2^63");
  }
  const std::uint32_t rounds_per_epoch = estimator.rounds_per_epoch();
  if (rounds_per_epoch == 0) {
    throw std::invalid_argument(std::string(estimator.name()) +
                                ": rounds_per_epoch must be > 0");
  }
  obs::RunTelemetry* const telemetry = options.telemetry;
  const support::RngStream root = support::RngStream(seed_).split("replica", replica);
  support::RngStream churn_rng = root.split("churn");
  support::RngStream est_rng = root.split("estimator");
  support::RngStream pick_rng = root.split("initiator");
  Replica setup(options, factory_, root, 0, replica_lane(replica));
  // Opened after setup: graph-build and topo-embed are their own phases.
  const obs::Span span = replica_span(telemetry, "simulate", replica);
  sim::Simulator& sim = setup.sim();
  const std::unique_ptr<DynamicsCursor> cursor =
      dynamics_->bind(sim.graph(), churn_rng);

  const auto total_rounds = static_cast<std::uint64_t>(std::llround(rounds));
  const double unit_per_round = 1.0 / rounds_per_unit;

  Series series;
  net::NodeId initiator = net::kInvalidNode;
  std::uint64_t baseline_msgs = sim.meter().total();
  std::uint32_t round_in_epoch = rounds_per_epoch;  // forces a restart

  for (std::uint64_t round = 0; round < total_rounds; ++round) {
    const double t = unit_per_round * static_cast<double>(round + 1);
    cursor->advance_to(t);
    sim.advance_to(t);
    if (sim.graph().empty()) break;

    if (round_in_epoch >= rounds_per_epoch) {
      initiator = ensure_initiator(sim.graph(), initiator, pick_rng);
      estimator.start_epoch(sim, initiator, est_rng);
      baseline_msgs = sim.meter().total();
      round_in_epoch = 0;
    }
    estimator.run_round(sim, est_rng);
    ++round_in_epoch;

    if (round_in_epoch == rounds_per_epoch) {
      // Epoch complete: read the estimate at the epoch's initiator, or at a
      // random survivor when the initiator died mid-epoch (the estimate is
      // available at every node, §V).
      const net::NodeId reader =
          ensure_initiator(sim.graph(), initiator, pick_rng);
      const est::Estimate e = estimator.epoch_estimate(sim, reader);
      SeriesPoint point;
      point.time = t;
      point.truth = static_cast<double>(sim.graph().size());
      point.estimate = e.value;
      point.valid = e.valid;
      point.messages = sim.meter().since(baseline_msgs);
      point.delay = e.delay;
      series.push_back(point);
      tick_progress(telemetry, replica, t, sim.graph().size());
    }
  }
  return series;
}

}  // namespace p2pse::scenario
