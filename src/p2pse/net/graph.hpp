#pragma once
// Dynamic unstructured-overlay graph.
//
// Nodes are identified by dense ids; removed nodes leave a dead slot (ids are
// never reused within one graph's lifetime) so protocol state keyed by NodeId
// stays valid across churn. Links are bidirectional (§IV-A of the paper), and
// removal does NOT rewire survivors — "nodes that have lost one or several
// neighbors do not create new links".
//
// Memory layout (struct-of-arrays): adjacency lists live in one shared
// arena, addressed by per-node {offset, len, cap} extents; liveness and the
// dense-alive back-pointer are a single parallel u32 vector. A degree probe
// or liveness check touches one cache line of one flat array instead of
// chasing a per-node std::vector header, and a walk over neighbors streams
// through contiguous arena memory. Chunks are power-of-two sized (>= 4) and
// recycled through per-size free-lists, so steady-state churn allocates
// nothing. Iteration ORDER within an adjacency list is identical to the
// historical per-node-vector layout (append at the back, swap-with-back on
// removal) — random_neighbor draws index by position, so this is what keeps
// figure outputs byte-identical across the layout change.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "p2pse/support/rng.hpp"

namespace p2pse::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Membership hook: notified after a node joins and before a node leaves.
/// Non-owning subscribers (e.g. topo::Topology embedding churn-joined
/// nodes) register via Graph::set_observer and must outlive the graph or
/// detach first.
class MembershipObserver {
 public:
  virtual ~MembershipObserver() = default;
  virtual void on_join(NodeId id) { (void)id; }
  virtual void on_leave(NodeId id) { (void)id; }
};

class Graph {
 public:
  /// Embedded telemetry counters (obs layer): plain u64 bumps on the churn
  /// paths, per-instance. Copied with the graph — a copy carries the build
  /// history of its prototype (deterministic either way, and a replica
  /// cloned from a shared prototype reports the full cost of its overlay).
  struct Counters {
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    std::uint64_t chunk_recycles = 0;
  };

  Graph() = default;
  /// Pre-creates `initial_nodes` alive nodes with no edges.
  explicit Graph(std::size_t initial_nodes);

  /// The observer is an attachment to THIS graph object, not part of the
  /// overlay's value: copies and moved-to graphs start detached (a replica
  /// copied from a shared prototype must never notify the prototype's
  /// subscriber).
  Graph(const Graph& other)
      : arena_(other.arena_), extents_(other.extents_),
        degree_(other.degree_), alive_pos_(other.alive_pos_),
        alive_(other.alive_), free_heads_(other.free_heads_),
        edges_(other.edges_), counters_(other.counters_) {}
  Graph(Graph&& other) noexcept
      : arena_(std::move(other.arena_)), extents_(std::move(other.extents_)),
        degree_(std::move(other.degree_)),
        alive_pos_(std::move(other.alive_pos_)),
        alive_(std::move(other.alive_)), free_heads_(other.free_heads_),
        edges_(other.edges_), counters_(other.counters_) {}
  Graph& operator=(const Graph& other) {
    if (this != &other) {
      arena_ = other.arena_;
      extents_ = other.extents_;
      degree_ = other.degree_;
      alive_pos_ = other.alive_pos_;
      alive_ = other.alive_;
      free_heads_ = other.free_heads_;
      edges_ = other.edges_;
      counters_ = other.counters_;
      observer_ = nullptr;
    }
    return *this;
  }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) {
      arena_ = std::move(other.arena_);
      extents_ = std::move(other.extents_);
      degree_ = std::move(other.degree_);
      alive_pos_ = std::move(other.alive_pos_);
      alive_ = std::move(other.alive_);
      free_heads_ = other.free_heads_;
      edges_ = other.edges_;
      counters_ = other.counters_;
      observer_ = nullptr;
    }
    return *this;
  }

  /// Registers the (single, non-owning) membership observer; nullptr
  /// detaches. Joins/leaves that already happened are not replayed — eager
  /// subscribers scan alive_nodes() at attach time.
  void set_observer(MembershipObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Adds a new isolated alive node and returns its id.
  NodeId add_node();

  /// Removes the node and every incident edge. Survivors are not rewired.
  /// No-op on dead/out-of-range ids.
  void remove_node(NodeId id);

  /// Adds the undirected edge {a,b}. Returns false (and does nothing) for
  /// self-loops or duplicate edges. Dead/out-of-range endpoints also return
  /// false in unchecked builds; in checked builds (P2PSE_CHECKED) they are a
  /// contract violation — wiring a dead node is a caller bug, callers that
  /// accept untrusted ids must test is_alive() first.
  bool add_edge(NodeId a, NodeId b);

  /// Removes the undirected edge {a,b} if present. Returns true if removed.
  bool remove_edge(NodeId a, NodeId b);

  [[nodiscard]] bool is_alive(NodeId id) const noexcept {
    return id < alive_pos_.size() && alive_pos_[id] != kInvalidNode;
  }

  /// Neighbors of an alive node (empty span for dead/out-of-range ids).
  /// The span is invalidated by ANY mutation of the graph (the shared arena
  /// may grow), not just mutations touching `id`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const noexcept {
    if (!is_alive(id)) return {};
    const Extent& e = extents_[id];
    return {arena_.data() + e.offset, e.len};
  }
  /// Degree probes are the hottest random access under churn (join-target
  /// rejection checks), so they read a dedicated dense u32 array — 4 bytes
  /// per slot instead of a 16-byte extent — with liveness fused in: a dead
  /// slot's entry is 0, so no alive_pos_ lookup is needed either.
  [[nodiscard]] std::size_t degree(NodeId id) const noexcept {
    return id < degree_.size() ? degree_[id] : 0;
  }

  /// Number of alive nodes.
  [[nodiscard]] std::size_t size() const noexcept { return alive_.size(); }
  /// Total slots ever created (alive + dead); ids are < slot_count().
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return extents_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }
  [[nodiscard]] bool empty() const noexcept { return alive_.empty(); }

  /// Dense view of alive node ids (order is arbitrary and changes on churn).
  [[nodiscard]] std::span<const NodeId> alive_nodes() const noexcept {
    return alive_;
  }

  /// Uniformly random alive node; kInvalidNode if the graph is empty.
  [[nodiscard]] NodeId random_alive(support::RngStream& rng) const noexcept {
    if (alive_.empty()) return kInvalidNode;
    return alive_[static_cast<std::size_t>(rng.uniform_u64(alive_.size()))];
  }

  /// Uniformly random neighbor of `id`; kInvalidNode if degree is 0.
  [[nodiscard]] NodeId random_neighbor(NodeId id, support::RngStream& rng)
      const noexcept {
    if (!is_alive(id)) return kInvalidNode;
    const Extent& e = extents_[id];
    if (e.len == 0) return kInvalidNode;
    return arena_[e.offset + static_cast<std::size_t>(rng.uniform_u64(e.len))];
  }

  /// Hints the prefetcher at the cache lines a degree probe / edge wiring
  /// of `id` will touch. Used by churn's candidate loop to overlap the
  /// dependent RNG-draw -> degree-probe miss chains across attempts.
  void prefetch_node(NodeId id) const noexcept {
    if (id >= degree_.size()) return;
    __builtin_prefetch(&degree_[id], 0);
    __builtin_prefetch(&extents_[id], 0);
  }

  /// Hints the prefetcher at the lines neighbors(id) reads before the
  /// arena: the liveness slot and the extent. Used by the gossip spread to
  /// overlap the next block's adjacency lookups with the current block.
  void prefetch_neighbors(NodeId id) const noexcept {
    if (id >= alive_pos_.size()) return;
    __builtin_prefetch(&alive_pos_[id], 0);
    __builtin_prefetch(&extents_[id], 0);
  }

  /// Average degree over alive nodes (0 for an empty graph).
  [[nodiscard]] double average_degree() const noexcept;

  void reserve(std::size_t nodes);

  /// Arena introspection for tests: total adjacency slots backed by the
  /// arena, and how many of those sit on chunk free-lists awaiting reuse.
  /// Under steady churn (leave/rejoin at similar degrees) arena_size
  /// stabilizes because freed chunks are recycled rather than leaked.
  // p2pse-lint: allow(no-caller) arena-stability tests read private state
  [[nodiscard]] std::size_t arena_size() const noexcept {
    return arena_.size();
  }
  // p2pse-lint: allow(no-caller) arena-stability tests read private state
  [[nodiscard]] std::size_t arena_free() const noexcept;

  /// Lifetime telemetry counters (see obs::collect).
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  /// Adjacency extent: a node's neighbor list is arena_[offset, offset+len),
  /// inside a chunk of `cap` slots. cap is 0 (no chunk) or a power of two
  /// >= kMinCap.
  struct Extent {
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  /// Smallest chunk: 8 slots covers the paper's typical join targets
  /// (1..10 neighbors) with at most one grow, and leaves room for the
  /// two-u32 free-list link.
  static constexpr std::uint32_t kMinCap = 8;
  /// Size classes kMinCap << c for c in [0, kNumClasses); 8..2^31 slots.
  static constexpr std::size_t kNumClasses = 29;
  static constexpr std::uint64_t kNullChunk =
      std::numeric_limits<std::uint64_t>::max();

  struct FreeHeads {
    std::uint64_t head[kNumClasses];
    FreeHeads() noexcept {
      for (auto& h : head) h = kNullChunk;
    }
  };

  [[nodiscard]] static std::size_t class_of(std::uint32_t cap) noexcept;

  /// Free-list links live inside the free chunks themselves (first two u32
  /// arena slots hold the 64-bit offset of the next free chunk; kMinCap >= 2
  /// guarantees the room).
  [[nodiscard]] std::uint64_t read_link(std::uint64_t offset) const noexcept {
    return static_cast<std::uint64_t>(arena_[offset]) |
           (static_cast<std::uint64_t>(arena_[offset + 1]) << 32);
  }
  void write_link(std::uint64_t offset, std::uint64_t next) noexcept {
    arena_[offset] = static_cast<NodeId>(next & 0xffffffffu);
    arena_[offset + 1] = static_cast<NodeId>(next >> 32);
  }

  [[nodiscard]] std::uint64_t allocate_chunk(std::uint32_t cap);
  void free_chunk(std::uint64_t offset, std::uint32_t cap) noexcept;
  /// Appends `v` to id's adjacency, growing (and possibly relocating) the
  /// chunk; relocation preserves element order.
  void append_neighbor(NodeId id, NodeId v);
  void detach_from(NodeId node, NodeId neighbor) noexcept;

  std::vector<NodeId> arena_;
  std::vector<Extent> extents_;
  /// Mirror of extents_[id].len for alive nodes, 0 for dead slots — the
  /// degree() fast path (see above). Kept in sync by every edge mutation.
  std::vector<std::uint32_t> degree_;
  /// Index into alive_ for live nodes; kInvalidNode marks a dead slot (this
  /// doubles as the liveness flag).
  std::vector<std::uint32_t> alive_pos_;
  std::vector<NodeId> alive_;
  FreeHeads free_heads_;
  std::size_t edges_ = 0;
  Counters counters_;
  MembershipObserver* observer_ = nullptr;
};

}  // namespace p2pse::net
