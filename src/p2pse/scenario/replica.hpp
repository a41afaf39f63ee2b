#pragma once
// One replica's simulator, set up the one way every run sets it up: build
// the overlay (§IV-A), seed the simulator, install the delivery channel,
// the wire-size table and the telemetry hooks, then embed the topology.
// ScenarioRunner and every figure generator construct their simulators
// through Replica, so the substream names, the trace spans and the counter
// snapshot are written once.
//
// Streams: the overlay draws from root.split("graph", index) and the
// simulator is seeded from root.split("sim", index). A caller that keeps
// other per-replica streams (churn, estimator, initiator) splits them from
// the same root. Setup never draws from any other stream, and the telemetry
// hooks never draw at all: a replica with a sink is byte-identical to one
// without.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/support/sharding.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::obs {
class RunTelemetry;
}  // namespace p2pse::obs

namespace p2pse::scenario {

/// Builds a fresh overlay replica from that replica's "graph" substream.
using GraphFactory = std::function<net::Graph(support::RngStream& rng)>;

/// A replica's setup, plus the pacing ScenarioRunner reads. Replica uses
/// the setup fields (network .. sim_workers) and ignores the pacing ones.
struct RunOptions {
  /// Point estimators take `estimations` atomic samples evenly spaced over
  /// the script duration; epoch estimators gossip `rounds_per_unit` rounds
  /// per time unit, one series point per epoch.
  std::size_t estimations = 100;
  double rounds_per_unit = 10.0;
  /// Delivery layer. The default is the ideal channel, which reproduces
  /// the reliable simulator bit-for-bit (sim::Channel's draw-nothing fast
  /// path).
  sim::NetworkConfig network{};
  /// Per-link topology. The default (flat) installs nothing: the channel
  /// stays on its i.i.d. path. A non-flat embedding draws from the sim's
  /// split("topo") substream, so churn-joined nodes embed
  /// deterministically.
  topo::TopologyConfig topology{};
  /// Wire-size spec ("sizes:header=48,..."; obs::MessageSizeModel
  /// grammar). Pure accounting: prices the bytes counters only. Empty
  /// keeps the built-in sizes.
  std::string sizes{};
  /// Optional telemetry sink (non-owning, may be null). When set, setup
  /// runs inside "graph-build"/"topo-embed" trace spans, the simulator
  /// gets the distribution recorder and the flight ring, and its counters
  /// are snapshotted (obs::collect) once, when a Replica whose run
  /// completed is destroyed.
  obs::RunTelemetry* telemetry = nullptr;
  /// Intra-replica worker budget (resolved; see
  /// support::sim_worker_budget). 1 = fully sequential. >1 shards the
  /// topology embedding across that many workers, byte-identically at any
  /// value (shard counts are fixed, per-shard substreams merge in order).
  std::size_t sim_workers = 1;
};

class Replica {
 public:
  /// Builds the overlay with `build` from root.split("graph", index), then
  /// sets up as below. Trace spans go to viewer lane `lane` (0 = the
  /// coordinating thread, 1+ = replica workers).
  Replica(const RunOptions& options, const GraphFactory& build,
          const support::RngStream& root, std::uint64_t index = 0,
          int lane = 0);

  /// Adopts an overlay the caller built from its own stream, or a copy of
  /// one shared by several replicas.
  Replica(const RunOptions& options, net::Graph graph,
          const support::RngStream& root, std::uint64_t index = 0,
          int lane = 0);

  /// Snapshots the simulator's counters into the telemetry sink, if any,
  /// unless an exception is unwinding the run.
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }

 private:
  obs::RunTelemetry* telemetry_;
  /// std::uncaught_exceptions() at construction: more at destruction
  /// means the run is being abandoned.
  int uncaught_ = std::uncaught_exceptions();
  support::ShardExecutor executor_;
  sim::Simulator sim_;
};

}  // namespace p2pse::scenario
