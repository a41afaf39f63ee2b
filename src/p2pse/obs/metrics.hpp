#pragma once
// The deterministic per-run counter block.
//
// Two layers, deliberately separate:
//
//  * The HOT layer is not in this file at all: Channel and Graph each
//    embed a plain-u64 `Counters` POD and bump it inline — no locks, no
//    branches, no lookups on the sim thread. Those PODs are per-instance,
//    so concurrent replicas never share a cache line (and TSan stays
//    quiet).
//  * The COLD layer here aggregates: `collect()` snapshots one finished
//    Simulator into a SimCounters block, and `operator+=` merges replica
//    blocks (u64 addition is commutative, so the merged totals are
//    invariant under --threads).
//
// Layering: obs may include sim/net/support, never est or harness.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "p2pse/sim/message_meter.hpp"
#include "p2pse/support/fixed_histogram.hpp"

namespace p2pse::net {
class Graph;
}  // namespace p2pse::net

namespace p2pse::sim {
class Simulator;
}  // namespace p2pse::sim

namespace p2pse::obs {

inline constexpr std::size_t kNumMessageClasses =
    static_cast<std::size_t>(sim::MessageClass::kCount_);

/// The exported `distributions` block: fixed-bucket histograms over the
/// canonical bounds (sim/run_recorder.hpp). ALWAYS present — a run without
/// a RunRecorder exports the same key set with zero counts, so the schema's
/// shape never depends on which flags were set. Merge is elementwise bucket
/// addition: commutative, hence invariant under replica completion order.
struct Distributions {
  std::vector<support::FixedHistogram> delay;  ///< one per MessageClass
  support::FixedHistogram walk_hops;
  support::FixedHistogram node_messages;
  support::FixedHistogram node_bytes;
  support::FixedHistogram degree;

  Distributions();
  Distributions& operator+=(const Distributions& other);
};

/// One run's deterministic counters: a pure function of (seed, parameters),
/// never of wall-clock or thread count. Merged across replicas with +=.
struct SimCounters {
  std::uint64_t replicas = 0;

  // Channel
  std::uint64_t channel_sends_iid = 0;
  std::uint64_t channel_sends_link = 0;
  std::uint64_t channel_drops = 0;
  std::uint64_t channel_retransmits = 0;
  std::uint64_t channel_arq_timeouts = 0;

  // Graph / churn
  std::uint64_t graph_joins = 0;
  std::uint64_t graph_leaves = 0;
  std::uint64_t graph_chunk_recycles = 0;

  // Per-protocol message classes (MessageMeter mirror) + total.
  std::uint64_t messages[kNumMessageClasses] = {};
  std::uint64_t messages_total = 0;

  // Bytes on the wire per class + total: transmissions x wire size under
  // the meter's installed size table (obs::MessageSizeModel). Sum-merged.
  std::uint64_t bytes[kNumMessageClasses] = {};
  std::uint64_t bytes_total = 0;

  // Per-node load peaks (RunRecorder; 0 without one). MAX-merged across
  // replicas: the reported figure is "the most loaded node of any replica",
  // and max is commutative, so thread invariance holds.
  std::uint64_t max_node_messages = 0;
  std::uint64_t max_node_bytes = 0;

  Distributions distributions;

  SimCounters& operator+=(const SimCounters& other);
};

/// Snapshots one simulator's embedded counters + message meter into a
/// single-replica SimCounters block (replicas = 1). Call once per replica,
/// after its run completes. Note: Simulator::set_network replaces the
/// Channel (resetting its counters), so snapshot AFTER all traffic, never
/// across a set_network call.
[[nodiscard]] SimCounters collect(const sim::Simulator& sim);

/// Graph-only variant for figures that never construct a Simulator (e.g.
/// degree-distribution analyses): only the graph counters are populated.
[[nodiscard]] SimCounters collect(const net::Graph& graph);

}  // namespace p2pse::obs
