#include "p2pse/scenario/replica.hpp"

#include <algorithm>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "p2pse/obs/size_model.hpp"
#include "p2pse/obs/telemetry.hpp"

namespace p2pse::scenario {
namespace {

/// Opens a trace span on `lane` (inert without a sink).
obs::Span lane_span(obs::RunTelemetry* telemetry, const char* name,
                    int lane) {
  if (telemetry == nullptr) return obs::Span{};
  return telemetry->span(name, lane);
}

/// Arms `exec`'s per-shard scope hook: each shard body runs inside a
/// "sim-shard-<s>" trace span on the replica's lane, opened on the shard's
/// executing thread (inert without a sink; support/ stays obs-free because
/// the hook is type-erased).
void arm_shard_spans(support::ShardExecutor& exec,
                     obs::RunTelemetry* telemetry, int lane) {
  if (telemetry == nullptr || exec.workers() <= 1) return;
  exec.set_scope_hook(
      [telemetry, lane](std::size_t shard) -> std::shared_ptr<void> {
        return std::make_shared<obs::Span>(
            telemetry->span("sim-shard-" + std::to_string(shard), lane));
      });
}

/// Installs the observability hooks: the wire-size table when `sizes` is
/// non-empty, and under a sink the distribution recorder plus the shared
/// flight ring. Never touches an RNG stream.
void arm_obs(sim::Simulator& sim, const std::string& sizes,
             obs::RunTelemetry* telemetry) {
  if (!sizes.empty()) {
    sim.meter().set_wire_sizes(
        obs::MessageSizeModel::parse(sizes).wire_sizes());
  }
  if (telemetry != nullptr) {
    sim.enable_recorder();
    sim.set_flight_recorder(telemetry->flight());
  }
}

net::Graph build_in_span(const RunOptions& options, const GraphFactory& build,
                         support::RngStream rng, int lane) {
  const obs::Span span = lane_span(options.telemetry, "graph-build", lane);
  return build(rng);
}

}  // namespace

Replica::Replica(const RunOptions& options, const GraphFactory& build,
                 const support::RngStream& root, std::uint64_t index,
                 int lane)
    : Replica(options,
              build_in_span(options, build, root.split("graph", index), lane),
              root, index, lane) {}

Replica::Replica(const RunOptions& options, net::Graph graph,
                 const support::RngStream& root, std::uint64_t index,
                 int lane)
    : telemetry_(options.telemetry),
      executor_(std::max<std::size_t>(1, options.sim_workers)),
      sim_(std::move(graph), root.split("sim", index).seed()) {
  arm_shard_spans(executor_, telemetry_, lane);
  sim_.set_network(options.network);
  arm_obs(sim_, options.sizes, telemetry_);
  const obs::Span span = lane_span(telemetry_, "topo-embed", lane);
  // No-op (and no draws) for a flat config; sharded across the budget
  // otherwise, with the same bytes at every budget.
  sim_.set_topology(options.topology, &executor_);
}

Replica::~Replica() {
  // A failed run reports nothing, and a destructor must not throw.
  if (telemetry_ == nullptr || std::uncaught_exceptions() > uncaught_) return;
  try {
    telemetry_->add_replica(obs::collect(sim_));
  } catch (const std::exception& e) {
    std::cerr << "p2pse: replica counters lost from the run stats: "
              << e.what() << '\n';
  }
}

}  // namespace p2pse::scenario
