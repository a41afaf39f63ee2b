#pragma once
// Topology-aware network model — the per-link layer beneath sim::Channel.
//
// PR 4's channel draws loss and latency i.i.d. per message: every pair of
// peers sees the same network. Real deployments measured by the related
// work (e.g. the IPFS churn/size study, arXiv:2205.14927) are nothing like
// that: peers cluster geographically, RTTs are heavy-tailed in the
// *distance* between endpoints, and access links range from datacenter
// fiber to lossy mobile uplinks. This module embeds every node in a 2D
// coordinate space (k Gaussian regions plus a uniform background), assigns
// it a peer class (datacenter / broadband / mobile), and composes per-LINK
// delivery parameters:
//
//   latency(a,b) = prop * dist(a,b) + access(class(a)) + access(class(b))
//                  [+ per-endpoint access jitter draws]
//   loss(a,b)    = 1 - (1-loss(class(a))) * (1-loss(class(b)))
//                      * (1-penalty if region(a) != region(b))
//
// which sim::Channel then composes with its own i.i.d. `net:` parameters.
//
// Determinism contract: a node's coordinates, region, and class are a pure
// function of (topology seed, node id) — each node draws from its own
// split("node", id) substream of the topology stream (which Simulator
// derives via rng().split("topo")). Churn therefore cannot perturb the
// embedding: a node that leaves and a NEW id that joins later draw from
// disjoint substreams, a node that stays keeps its placement, and query
// order never matters. The flat topology (single zero-cost class, zero
// distance) is recognised by Channel and takes the draw-nothing i.i.d.
// path, so every pre-topology binary stays byte-identical.
//
// Spec grammar (mirrors the trace workload registry; unknown models,
// unknown keys, duplicate keys, and malformed values are hard errors):
//
//   topo | topo:flat                     the identity model (fast path)
//   topo:classes[,key=value,...]        heterogeneous classes, zero distance
//   topo:clustered[,key=value,...]      regions + classes (the full model)

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "p2pse/net/graph.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::support {
class ShardExecutor;
}  // namespace p2pse::support

namespace p2pse::topo {

/// Access-link peer classes, coarsest useful taxonomy of the measurement
/// studies: backbone-attached servers, home broadband, cellular.
enum class PeerClass : std::uint8_t { kDatacenter = 0, kBroadband, kMobile };
inline constexpr std::size_t kPeerClassCount = 3;

[[nodiscard]] std::string_view peer_class_name(PeerClass cls) noexcept;

/// Per-class access-link contribution, charged once per endpoint.
struct ClassProfile {
  double access_latency = 0.0;  ///< deterministic one-way access term
  double loss = 0.0;            ///< per-transmission access-loss probability
  double jitter = 0.0;          ///< uniform [0, jitter) access jitter
};

/// One registered topology model, for --list output.
struct TopologyModelInfo {
  std::string_view name;
  std::string_view keys;  ///< comma-separated accepted keys
  std::string_view what;  ///< one-line description
};

/// Every built-in topology model, in canonical order.
[[nodiscard]] const std::vector<TopologyModelInfo>& topology_model_infos();

/// Parsed `topo:` spec — geometry, class mix, and the per-class table.
/// A default-constructed config IS the flat identity (what an absent --topo
/// means); the clustered/classes model defaults live in parse().
struct TopologyConfig {
  /// Model name ("flat", "classes", "clustered"); set by parse().
  std::string model = "flat";

  // --- geometry ("clustered" only; zero for "flat"/"classes") --------------
  std::size_t regions = 0;  ///< Gaussian population centers (0 = uniform)
  double spread = 0.0;      ///< per-region Gaussian sigma
  double world = 0.0;       ///< region centers drawn in [0, world)^2
  double background = 0.0;  ///< fraction placed uniformly instead
  double prop = 0.0;        ///< propagation latency per unit distance
  double penalty = 0.0;     ///< extra loss factor on inter-region links

  // --- peer classes ---------------------------------------------------------
  /// Class mix (datacenter, broadband, mobile); parse() validates that every
  /// entry is >= 0 and the sum is > 0, then normalizes to probabilities.
  std::array<double, kPeerClassCount> mix{1.0, 0.0, 0.0};
  std::array<ClassProfile, kPeerClassCount> classes{};

  /// True when the topology cannot alter delivery at all: one effective
  /// class with zero access latency/loss/jitter and zero link distance.
  /// Flat topologies take the channel's i.i.d. fast path (byte-identity).
  [[nodiscard]] bool flat() const noexcept;
  /// True when some link can drop a message (class loss or region penalty).
  [[nodiscard]] bool lossy() const noexcept;

  /// Parses "topo", "topo:flat", "topo:clustered,regions=8,mix=0:0.2:0.8".
  /// Class-table overrides take LAT:LOSS:JITTER triples, e.g.
  /// "mob=60:0.08:25". Unknown models/keys, duplicate keys, and malformed
  /// values are hard errors listing the candidates.
  [[nodiscard]] static TopologyConfig parse(std::string_view text);

  /// Round-trip spec form, "topo:clustered,regions=...". parse(canonical())
  /// reproduces the config up to 6-significant-digit value rendering.
  [[nodiscard]] std::string canonical() const;
};

/// The realized embedding: lazily materializes per-node placement/class
/// draws and composes per-link delivery parameters. One Topology per
/// Simulator (single-threaded within a replica); registers itself as the
/// graph's membership observer so churn-joined nodes are embedded eagerly
/// and per-class population counts stay current.
class Topology final : public net::MembershipObserver {
 public:
  struct NodeInfo {
    double x = 0.0;
    double y = 0.0;
    std::uint32_t region = 0;
    PeerClass cls = PeerClass::kDatacenter;
  };

  /// Deterministic per-link parameters (before the channel's own i.i.d.
  /// terms); symmetric in (from, to).
  struct LinkParams {
    double latency = 0.0;      ///< propagation + both access terms
    double loss = 0.0;         ///< composed class loss + region penalty
    double jitter_span = 0.0;  ///< sum of both endpoints' jitter spans
  };

  /// `rng` must be a dedicated substream (Simulator passes
  /// rng().split("topo")); the topology derives per-node substreams from it
  /// and never draws from it directly after construction.
  Topology(const TopologyConfig& config, support::RngStream rng);
  ~Topology() override;

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] const TopologyConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool flat() const noexcept { return flat_; }
  [[nodiscard]] bool lossy() const noexcept { return lossy_; }

  /// The node's embedding; materialized (and cached) on first query. The
  /// returned reference is invalidated by a later query for a HIGHER id
  /// (cache growth) — copy the struct to hold it across queries.
  [[nodiscard]] const NodeInfo& node(net::NodeId id);

  /// Composed deterministic link parameters for one (from, to) pair.
  [[nodiscard]] LinkParams link(net::NodeId from, net::NodeId to);

  /// Region centers (size == config().regions).
  [[nodiscard]] const std::vector<std::pair<double, double>>& centers()
      const noexcept {
    return centers_;
  }

  /// Eagerly embeds every alive node of `graph` and subscribes to its
  /// join/leave notifications. At most one graph at a time; the topology
  /// must outlive the attachment (Simulator owns both).
  void attach(net::Graph& graph);

  /// attach() with an intra-replica worker budget: the alive nodes embed in
  /// parallel shards. BYTE-IDENTICAL to sequential attach at any budget —
  /// each node's placement comes from its own split("node", id) substream
  /// (order-independent by the determinism contract above) and the class
  /// census merges commutative per-shard counts in shard order. nullptr or
  /// a 1-worker executor falls back to the sequential path.
  void attach(net::Graph& graph, const support::ShardExecutor* executor);

  // net::MembershipObserver — joins embed the node, leaves only update the
  // alive-class census (the embedding itself is immutable per id, which is
  // what makes churn replay-stable).
  void on_join(net::NodeId id) override;
  void on_leave(net::NodeId id) override;

  /// Alive-node count per class (maintained through attach() + churn).
  [[nodiscard]] const std::array<std::size_t, kPeerClassCount>&
  alive_class_counts() const noexcept {
    return alive_counts_;
  }

 private:
  [[nodiscard]] const NodeInfo& materialize(net::NodeId id);

  TopologyConfig config_;
  support::RngStream rng_;
  bool flat_ = true;
  bool lossy_ = false;
  std::vector<std::pair<double, double>> centers_;
  std::vector<std::optional<NodeInfo>> nodes_;
  std::array<std::size_t, kPeerClassCount> alive_counts_{};
  net::Graph* attached_ = nullptr;
};

}  // namespace p2pse::topo
