#pragma once
// Unreliable message delivery — the physical-network layer the paper names
// as future work (its §IV-A simulator counts messages only; its §V delay
// discussion is an analytic conjecture). Every protocol message is pushed
// through a Channel that draws per-message one-way latency from a
// LatencyModel, adds optional uniform jitter, and drops the message with a
// configurable probability.
//
// Determinism contract: the channel owns a dedicated RNG substream
// (Simulator derives it via rng().split("channel")), so installing a
// channel never perturbs estimator or churn randomness. A loss-free,
// zero-latency channel without a topology takes a fast path that draws
// nothing at all and therefore reproduces the reliable simulator
// bit-for-bit at any thread count.
//
// Three delivery disciplines cover the protocols' reliability needs, one
// send each, and every send names its (from, to) endpoints:
//  * send          — one fire-and-forget transmission (gossip spreads,
//                    poll replies, Aggregation exchanges: redundancy or a
//                    round mask is the protocol's own repair mechanism);
//  * send_arq      — bounded per-hop ARQ: up to 1+retries transmissions,
//                    each loss detected after `timeout` (Sample&Collide
//                    walk hops and sample replies);
//  * send_reliable — retransmit until delivered (Random Tour hops: the
//                    message carries the tour's irreplaceable accumulator,
//                    the standard lossy-link adaptation is per-hop acks).
// Without a topology the endpoints only attribute per-node load; with one
// they also price the link (see set_topology).

#include <cstdint>
#include <string>
#include <string_view>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/latency.hpp"
#include "p2pse/sim/message_meter.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::sim {

class RunRecorder;

/// Parsed `net:` spec — the delivery layer's five knobs.
struct NetworkConfig {
  /// Per-transmission drop probability in [0, 1].
  double loss = 0.0;
  /// One-way per-message latency distribution.
  LatencyModel latency = LatencyModel::constant(0.0);
  /// Extra uniform jitter in [0, jitter) added to every sampled latency.
  double jitter = 0.0;
  /// Loss-detection wait: how long a sender (per-hop ARQ) or an initiator
  /// (end-to-end retry) waits before declaring a message lost. Must be > 0.
  double timeout = 50.0;
  /// Retransmissions a bounded-ARQ send may use after the first attempt.
  std::uint32_t retries = 2;

  /// True when the channel cannot alter delivery at all: no loss, no
  /// latency, no jitter. Ideal configs take the draw-nothing fast path.
  [[nodiscard]] bool ideal() const noexcept {
    return loss <= 0.0 && jitter <= 0.0 && latency.mean() <= 0.0;
  }

  /// Parses "net", "net:loss=0.05,latency=exp:50,timeout=100,...".
  /// Latency grammar: constant:H | uniform:LO:HI | exp:MEAN |
  /// lognormal:MU:SIGMA | pareto:XM:ALPHA.
  /// Unknown keys, malformed values, loss outside [0,1], negative jitter,
  /// a non-positive timeout and unknown latency models are hard errors
  /// listing the valid candidates (registry style — a typo'd network spec
  /// must never silently run the reliable simulator).
  [[nodiscard]] static NetworkConfig parse(std::string_view text);

  /// Valid spec keys, e.g. for error messages: "jitter, latency, loss,
  /// retries, timeout".
  [[nodiscard]] static std::string_view keys_help() noexcept;

  /// Round-trip spec form: "net:loss=...,latency=...,jitter=...,
  /// timeout=...,retries=...". parse(canonical()) reproduces the config up
  /// to the 6-significant-digit rendering of its values — exact for every
  /// spec a human types, lossy only for values needing more digits.
  [[nodiscard]] std::string canonical() const;
};

class Channel {
 public:
  /// Outcome of one logical send (possibly several transmissions).
  struct Delivery {
    bool delivered = true;
    /// Wall-clock from first transmission to delivery: sampled latencies
    /// plus one `timeout` per lost transmission. For an undelivered ARQ
    /// send this is the full (1+retries) * timeout wait.
    double latency = 0.0;
    /// Transmissions used; every one is counted on the meter.
    std::uint32_t transmissions = 1;
  };

  /// Embedded telemetry counters (obs layer): plain u64 bumps on the send
  /// paths, per-instance (no shared state across replica channels). Note
  /// Simulator::set_network replaces the channel — and these counters —
  /// so snapshot only after all traffic (obs::collect does).
  struct Counters {
    std::uint64_t sends_iid = 0;    ///< transmissions without a topology
    std::uint64_t sends_link = 0;   ///< transmissions priced per-link
    std::uint64_t drops = 0;        ///< transmissions lost to a loss draw
    std::uint64_t retransmits = 0;  ///< transmissions beyond each first
    std::uint64_t arq_timeouts = 0; ///< bounded-ARQ sends that gave up
  };

  /// The ideal channel: delivers everything at zero latency, draws nothing.
  Channel() noexcept = default;

  Channel(const NetworkConfig& config, support::RngStream rng)
      : config_(config), rng_(rng), ideal_(config.ideal()) {}

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool ideal() const noexcept { return ideal_; }

  /// Installs per-link mode: every send composes the i.i.d. `net:`
  /// parameters with the topology's latency/loss/jitter for its (from, to)
  /// link. The caller (Simulator) only installs NON-flat topologies — a
  /// flat topology stays on the i.i.d. draw path, which is what keeps every
  /// pre-topology binary byte-identical — and must keep `topology` alive
  /// for the channel's lifetime. nullptr returns to pure i.i.d. mode.
  void set_topology(topo::Topology* topology) noexcept { topo_ = topology; }

  /// Lifetime telemetry counters (see obs::collect).
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// Installs the distribution recorder (sim::RunRecorder): per-class delay
  /// histograms and per-node sent/received tallies, recorded once per
  /// logical send. Non-owning — the Simulator owns the recorder and
  /// re-installs it across set_network. Null (the default) disables
  /// recording at the cost of one branch per send.
  void set_recorder(RunRecorder* recorder) noexcept { recorder_ = recorder; }
  [[nodiscard]] RunRecorder* recorder() const noexcept { return recorder_; }

  /// True when some transmission can be dropped — by the i.i.d. loss knob
  /// or by any per-link class/region loss. The poll protocols use this to
  /// decide whether the initiator must hold its reply window open for the
  /// full timeout.
  [[nodiscard]] bool lossy() const noexcept;

  /// One fire-and-forget transmission from `from` to `to`. Checked builds
  /// reject an invalid endpoint on every send (self-sends are legal: a
  /// poll may draw its own initiator).
  Delivery send(MessageMeter& meter, MessageClass cls, net::NodeId from,
                net::NodeId to);

  /// Bounded ARQ: up to 1 + config().retries transmissions; gives up after
  /// that (Delivery.delivered == false).
  Delivery send_arq(MessageMeter& meter, MessageClass cls, net::NodeId from,
                    net::NodeId to);

  /// Hop-reliable delivery: retransmits until the message gets through
  /// (safety-capped; the cap can only bite at loss rates ~1).
  Delivery send_reliable(MessageMeter& meter, MessageClass cls,
                         net::NodeId from, net::NodeId to);

 private:
  /// What one logical send is priced with: its per-transmission drop
  /// probability and the link's deterministic terms (all zero without a
  /// topology). Retransmissions reuse it — they stay on the same link.
  struct Pricing {
    double loss = 0.0;
    topo::Topology::LinkParams link{};
  };
  [[nodiscard]] Pricing price(net::NodeId from, net::NodeId to) const;
  /// The counter each transmission bumps: sends_link under a topology,
  /// sends_iid otherwise.
  [[nodiscard]] std::uint64_t& sends() noexcept {
    return topo_ != nullptr ? counters_.sends_link : counters_.sends_iid;
  }
  /// One delivered transmission's latency: the i.i.d. draw (+ i.i.d.
  /// jitter), plus the link's latency and one access-jitter draw.
  [[nodiscard]] double draw_latency(const topo::Topology::LinkParams& link);
  /// The ideal fast path (ideal channel, no topology): one counted
  /// transmission delivered at zero latency, drawing nothing.
  Delivery send_ideal(MessageMeter& meter, MessageClass cls, net::NodeId from,
                      net::NodeId to);
  /// One logical send into the recorder: all transmissions leave `from`,
  /// the delivered final one reaches `to`. Called with recorder_ non-null.
  void record(const MessageMeter& meter, MessageClass cls, net::NodeId from,
              net::NodeId to, const Delivery& delivery);

  NetworkConfig config_{};
  support::RngStream rng_{0};
  bool ideal_ = true;
  topo::Topology* topo_ = nullptr;
  Counters counters_{};
  RunRecorder* recorder_ = nullptr;
};

}  // namespace p2pse::sim
