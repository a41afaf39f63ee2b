#pragma once
// The simulation context shared by every protocol: the overlay graph, the
// simulated clock, the message meter, the delivery channel and the root
// RNG. The default matches the paper's simulator contract (§IV-A):
// messages are counted, delivery is perfect. Installing a non-ideal
// sim::NetworkConfig (set_network) adds the physical-network behaviour the
// paper names as future work: per-message latency, jitter and loss, routed
// through sim::Channel.

#include <cstdint>
#include <memory>
#include <utility>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/sim/flight_sink.hpp"
#include "p2pse/sim/message_meter.hpp"
#include "p2pse/sim/run_recorder.hpp"
#include "p2pse/sim/time.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::sim {

class Simulator {
 public:
  /// Takes ownership of the overlay. `seed` feeds the root RNG; protocol
  /// components should derive substreams via rng().split(tag).
  Simulator(net::Graph graph, std::uint64_t seed)
      : graph_(std::move(graph)), rng_(seed) {}

  /// Not copyable (the topology is uniquely owned). Movable, but NOT by
  /// default: the topology observes this object's graph_ member, so a move
  /// must re-attach it to the new location (the graph's own move resets its
  /// observer precisely to prevent notifications to a stale subscriber).
  /// The channel's topology pointer stays valid — the Topology lives on the
  /// heap.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&& other) noexcept
      : graph_(std::move(other.graph_)), meter_(other.meter_),
        channel_(std::move(other.channel_)),
        topology_(std::move(other.topology_)),
        recorder_(std::move(other.recorder_)), flight_(other.flight_),
        rng_(other.rng_), now_(other.now_) {
    if (topology_) topology_->attach(graph_);
  }
  Simulator& operator=(Simulator&& other) noexcept {
    if (this != &other) {
      graph_ = std::move(other.graph_);
      meter_ = other.meter_;
      channel_ = std::move(other.channel_);
      topology_ = std::move(other.topology_);
      recorder_ = std::move(other.recorder_);
      flight_ = other.flight_;
      rng_ = other.rng_;
      now_ = other.now_;
      if (topology_) topology_->attach(graph_);
    }
    return *this;
  }

  [[nodiscard]] net::Graph& graph() noexcept { return graph_; }
  [[nodiscard]] const net::Graph& graph() const noexcept { return graph_; }

  [[nodiscard]] MessageMeter& meter() noexcept { return meter_; }
  [[nodiscard]] const MessageMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] support::RngStream& rng() noexcept { return rng_; }

  [[nodiscard]] Channel& channel() noexcept { return channel_; }
  [[nodiscard]] const Channel& channel() const noexcept { return channel_; }

  /// Installs the delivery layer. The channel's RNG is a deterministic
  /// substream of the root seed (split("channel")), so two simulators built
  /// from the same seed see identical deliveries — and estimator streams
  /// are never perturbed, whatever the network config. An installed
  /// topology survives the channel swap.
  void set_network(const NetworkConfig& config) {
    channel_ = Channel(config, rng_.split("channel"));
    if (topology_) channel_.set_topology(topology_.get());
    channel_.set_recorder(recorder_.get());
  }

  /// Installs the per-link topology layer. The embedding draws from a
  /// dedicated split("topo") substream (estimator/churn/channel streams
  /// untouched), attaches to the overlay so churn-joined nodes embed
  /// eagerly, and switches the channel to per-link pricing. A FLAT config
  /// installs nothing at all: the channel stays on its i.i.d. draw path and
  /// the run is byte-identical to one that never mentioned a topology.
  ///
  /// A non-null `executor` shards the eager embedding of all alive nodes
  /// (the dominant cost at 1M+ nodes); the result is byte-identical at any
  /// budget — see topo::Topology::attach. The executor is only used during
  /// this call; later churn-driven embeds stay on the sim thread.
  void set_topology(const topo::TopologyConfig& config,
                    const support::ShardExecutor* executor = nullptr) {
    if (config.flat()) {
      channel_.set_topology(nullptr);
      topology_.reset();
      return;
    }
    topology_ = std::make_unique<topo::Topology>(config, rng_.split("topo"));
    topology_->attach(graph_, executor);
    channel_.set_topology(topology_.get());
  }

  /// The installed topology; nullptr when flat/absent.
  [[nodiscard]] topo::Topology* topology() noexcept {
    return topology_.get();
  }

  /// Installs (idempotently) the distribution recorder and wires it into
  /// the current channel. Heap-owned so the channel's raw pointer survives
  /// Simulator moves; survives set_network (which re-installs it). The
  /// recorder never draws — a run with one is byte-identical to one
  /// without.
  void enable_recorder() {
    if (!recorder_) recorder_ = std::make_unique<RunRecorder>();
    channel_.set_recorder(recorder_.get());
  }
  /// The installed recorder; nullptr until enable_recorder().
  [[nodiscard]] RunRecorder* recorder() noexcept { return recorder_.get(); }
  [[nodiscard]] const RunRecorder* recorder() const noexcept {
    return recorder_.get();
  }

  /// One completed random walk of `hops` hops (walk estimators report
  /// their walk lengths here; no-op without a recorder).
  void record_walk_hops(std::uint64_t hops) {
    if (recorder_) recorder_->on_walk(hops);
  }

  /// Attaches the flight recorder ring (obs::FlightRecorder via the
  /// sim-side FlightSink interface). Non-owning; null detaches. Purely
  /// observational — never perturbs a draw or a delivery.
  void set_flight_recorder(FlightSink* sink) noexcept { flight_ = sink; }

  /// Delivery shorthands: route one message from `from` to `to` through
  /// the channel, counting it on the meter (see Channel for the three
  /// disciplines).
  Channel::Delivery send(MessageClass cls, net::NodeId from, net::NodeId to) {
    flight_send(cls, from);
    return channel_.send(meter_, cls, from, to);
  }
  Channel::Delivery send_arq(MessageClass cls, net::NodeId from,
                             net::NodeId to) {
    flight_send(cls, from);
    return channel_.send_arq(meter_, cls, from, to);
  }
  Channel::Delivery send_reliable(MessageClass cls, net::NodeId from,
                                  net::NodeId to) {
    flight_send(cls, from);
    return channel_.send_reliable(meter_, cls, from, to);
  }

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Advances the clock (used by the scenario drivers between estimates).
  void advance_to(Time t) noexcept {
    if (t > now_) now_ = t;
  }

 private:
  void flight_send(MessageClass cls, net::NodeId from) {
    if (flight_ != nullptr) {
      flight_->record(now_, FlightSink::Kind::kSend, from, cls);
    }
  }

  net::Graph graph_;
  MessageMeter meter_;
  Channel channel_;
  /// Heap-allocated so the channel's and graph's raw observer pointers stay
  /// stable; declared after graph_/channel_ so it detaches (destructor)
  /// while both are still alive.
  std::unique_ptr<topo::Topology> topology_;
  /// Heap-allocated for the same reason: the channel holds a raw pointer
  /// to it across Simulator moves and set_network swaps.
  std::unique_ptr<RunRecorder> recorder_;
  FlightSink* flight_ = nullptr;
  support::RngStream rng_;
  Time now_ = 0.0;
};

}  // namespace p2pse::sim
