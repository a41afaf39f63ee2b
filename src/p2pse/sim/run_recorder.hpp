#pragma once
// RunRecorder: the per-replica distribution substrate behind the stats
// document's `distributions` block and the per-node load axis (the paper's
// load-balance concern). One instance per Simulator, installed only when a
// telemetry sink is attached (enable_recorder) — a null recorder costs one
// branch per logical send and nothing else.
//
// Everything recorded here is a pure function of the replica's RNG streams:
// the recorder itself never draws, so a run with a recorder is
// byte-identical to one without. All state is merge-order-invariant
// (FixedHistogram, u64 loads), so replica merges commute and the exported
// distributions are invariant under --threads / --sim-threads.

#include <cstdint>
#include <vector>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/message_meter.hpp"
#include "p2pse/support/fixed_histogram.hpp"

namespace p2pse::sim {

/// Canonical bucket edges for the versioned `distributions` schema. Fixed
/// constants (never derived from the data) so histograms from any run, any
/// replica, any thread count merge bucket-for-bucket.
[[nodiscard]] std::vector<double> delay_bounds();         ///< sim-time units
[[nodiscard]] std::vector<double> walk_hop_bounds();      ///< hops per walk
[[nodiscard]] std::vector<double> node_message_bounds();  ///< msgs per node
[[nodiscard]] std::vector<double> node_byte_bounds();     ///< bytes per node
[[nodiscard]] std::vector<double> degree_bounds();        ///< overlay degree

class RunRecorder {
 public:
  /// Per-node traffic tally. "sent" counts every transmission leaving the
  /// node (retransmissions included — they all cross its access link);
  /// "recv" counts logical messages that actually arrived.
  struct NodeLoad {
    std::uint64_t sent_msgs = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t recv_msgs = 0;
    std::uint64_t recv_bytes = 0;

    [[nodiscard]] std::uint64_t messages() const noexcept {
      return sent_msgs + recv_msgs;
    }
    [[nodiscard]] std::uint64_t bytes() const noexcept {
      return sent_bytes + recv_bytes;
    }
  };

  RunRecorder();

  /// One logical send: `transmissions` datagrams of `wire_size` bytes left
  /// `from`. Every channel send names real endpoints; the kInvalidNode
  /// guards here are safety code that skips the per-node tally (the meter
  /// still counts the message globally).
  void on_send(net::NodeId from, std::uint32_t transmissions,
               std::uint64_t wire_size) {
    if (from == net::kInvalidNode) return;
    NodeLoad& load = touch(from);
    load.sent_msgs += transmissions;
    load.sent_bytes += static_cast<std::uint64_t>(transmissions) * wire_size;
  }

  /// One delivered logical message: `to` received the final (successful)
  /// transmission after `delay` sim-time units end to end.
  void on_delivered(MessageClass cls, net::NodeId to, double delay,
                    std::uint64_t wire_size) {
    delay_[static_cast<std::size_t>(cls)].observe(delay);
    if (to == net::kInvalidNode) return;
    NodeLoad& load = touch(to);
    load.recv_msgs += 1;
    load.recv_bytes += wire_size;
  }

  /// One completed random walk of `hops` delivered hops (the walk engine's
  /// est::walk_to_sample, for Sample&Collide and InvertedBirthday, and
  /// RandomTour call this; walks killed by loss do not report a length).
  void on_walk(std::uint64_t hops) {
    walk_hops_.observe(static_cast<double>(hops));
  }

  [[nodiscard]] const support::FixedHistogram& delay(MessageClass cls) const {
    return delay_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] const support::FixedHistogram& walk_hops() const noexcept {
    return walk_hops_;
  }

  /// The busiest node's total (sent + received) messages and bytes.
  [[nodiscard]] std::uint64_t max_node_messages() const noexcept;
  [[nodiscard]] std::uint64_t max_node_bytes() const noexcept;

  /// Observes every alive node's total load into the two histograms
  /// (zero-load alive nodes included: they ARE the load-balance story).
  void fill_load_histograms(const net::Graph& graph,
                            support::FixedHistogram& messages,
                            support::FixedHistogram& bytes) const;

  /// Clears the per-node tallies only (table1 reuses one simulator across
  /// algorithm blocks and reports a per-block max load). Histograms keep
  /// accumulating.
  void reset_node_loads() noexcept { loads_.clear(); }

 private:
  [[nodiscard]] NodeLoad& touch(net::NodeId id) {
    if (id >= loads_.size()) loads_.resize(id + 1);
    return loads_[id];
  }

  std::vector<support::FixedHistogram> delay_;  // one per MessageClass
  support::FixedHistogram walk_hops_;
  std::vector<NodeLoad> loads_;
};

}  // namespace p2pse::sim
