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
// arena of u32 slots. Each node owns one packed 8-byte record: the 32-bit
// slot offset of its chunk, its length (the degree), log2 of the chunk's
// capacity and its liveness. Besides the record, a node costs only its u32
// entry in the dense alive list and the back-pointer to that entry. A
// degree probe, a liveness check or a walk's hop reads one record and then
// the arena, and a walk over neighbors streams through contiguous arena
// memory. Chunks are power-of-two sized (>= 8) and recycled through
// per-size free-lists, so steady-state churn allocates nothing; a builder
// that knows its degree cap reserves the arena's worst case up front
// (arena_bound), so the build never reallocates it. Iteration ORDER within
// an adjacency list is identical to the historical per-node-vector layout
// (append at the back, swap-with-back on removal) — random_neighbor draws
// index by position, so this is what keeps figure outputs byte-identical
// across layout changes.

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

  /// Largest degree the record's length field holds, and the most slots
  /// the arena's 32-bit offsets address. Crossing either throws
  /// std::length_error.
  static constexpr std::size_t kMaxDegree = (std::size_t{1} << 26) - 1;
  static constexpr std::size_t kMaxArenaSlots = std::size_t{1} << 32;

  Graph() = default;
  /// Pre-creates `initial_nodes` alive nodes with no edges and reserves
  /// `arena_slots` adjacency slots (see reserve).
  explicit Graph(std::size_t initial_nodes, std::size_t arena_slots = 0);

  /// The observer is an attachment to THIS graph object, not part of the
  /// overlay's value: copies and moved-to graphs start detached (a replica
  /// copied from a shared prototype must never notify the prototype's
  /// subscriber).
  Graph(const Graph& other)
      : arena_(other.arena_), records_(other.records_),
        alive_pos_(other.alive_pos_), alive_(other.alive_),
        free_heads_(other.free_heads_), edges_(other.edges_),
        counters_(other.counters_) {}
  Graph(Graph&& other) noexcept
      : arena_(std::move(other.arena_)), records_(std::move(other.records_)),
        alive_pos_(std::move(other.alive_pos_)),
        alive_(std::move(other.alive_)), free_heads_(other.free_heads_),
        edges_(other.edges_), counters_(other.counters_) {}
  Graph& operator=(const Graph& other) {
    if (this != &other) {
      arena_ = other.arena_;
      records_ = other.records_;
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
      records_ = std::move(other.records_);
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
  /// accept untrusted ids must test is_alive() first. Throws
  /// std::length_error, leaving the edge out, when an endpoint already has
  /// kMaxDegree neighbors or the arena would pass kMaxArenaSlots.
  bool add_edge(NodeId a, NodeId b);

  /// Removes the undirected edge {a,b} if present. Returns true if removed.
  bool remove_edge(NodeId a, NodeId b);

  [[nodiscard]] bool is_alive(NodeId id) const noexcept {
    return id < records_.size() && records_[id].alive != 0;
  }

  /// Neighbors of an alive node (empty span for dead/out-of-range ids).
  /// The span is invalidated by ANY mutation of the graph (the shared arena
  /// may grow), not just mutations touching `id`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const noexcept {
    if (id >= records_.size()) return {};
    const Record r = records_[id];
    return {arena_.data() + r.offset, r.len};
  }
  /// Degree probes are the hottest random access under churn (join-target
  /// rejection checks): one 8-byte record, no liveness test, since a dead
  /// slot's record is all zero.
  [[nodiscard]] std::size_t degree(NodeId id) const noexcept {
    return id < records_.size() ? records_[id].len : 0;
  }

  /// Number of alive nodes.
  [[nodiscard]] std::size_t size() const noexcept { return alive_.size(); }
  /// Total slots ever created (alive + dead); ids are < slot_count().
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return records_.size();
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
    if (id >= records_.size()) return kInvalidNode;
    const Record r = records_[id];
    if (r.len == 0) return kInvalidNode;
    return arena_[r.offset + static_cast<std::size_t>(rng.uniform_u64(r.len))];
  }

  /// Hints the prefetcher at the record that degree(), neighbors() and edge
  /// wiring of `id` read before the arena. Used by churn's candidate loop to
  /// overlap the dependent RNG-draw -> degree-probe miss chains across
  /// attempts, and by the gossip spread to overlap the next block's
  /// adjacency lookups with the current block.
  void prefetch_node(NodeId id) const noexcept {
    if (id >= records_.size()) return;
    __builtin_prefetch(&records_[id], 0);
  }

  /// Average degree over alive nodes (0 for an empty graph).
  [[nodiscard]] double average_degree() const noexcept;

  /// Reserves room for `nodes` nodes and `arena_slots` adjacency slots
  /// (clamped to kMaxArenaSlots). Reserved capacity that is never written
  /// is not resident, so a generous arena bound costs no memory, while a
  /// build that stays inside it never reallocates the arena (which would
  /// hold the old and the new buffer at once).
  void reserve(std::size_t nodes, std::size_t arena_slots = 0);

  /// Worst-case arena slots for `nodes` nodes that are never removed and
  /// whose degree never exceeds `max_degree`: each node allocates at most
  /// one fresh chunk per size class up to the one holding max_degree, and
  /// chunks freed by growth only shrink that total. Clamped to
  /// kMaxArenaSlots.
  [[nodiscard]] static std::size_t arena_bound(std::size_t nodes,
                                               std::size_t max_degree) noexcept;

  /// Arena introspection for tests: total adjacency slots backed by the
  /// arena, and how many of those sit on chunk free-lists awaiting reuse.
  /// Under steady churn (leave/rejoin at similar degrees) arena_size
  /// stabilizes because freed chunks are recycled rather than leaked.
  // p2pse-lint: allow(no-caller) arena-stability tests read private state
  [[nodiscard]] std::size_t arena_size() const noexcept {
    return arena_.size();
  }
  /// Slots the arena holds without reallocating; a build that stays inside
  /// the bound it reserved leaves this at that bound.
  // p2pse-lint: allow(no-caller) arena-reserve tests read private state
  [[nodiscard]] std::size_t arena_capacity() const noexcept {
    return arena_.capacity();
  }
  // p2pse-lint: allow(no-caller) arena-stability tests read private state
  [[nodiscard]] std::size_t arena_free() const noexcept;

  /// Lifetime telemetry counters (see obs::collect).
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  /// A node's whole adjacency state: its neighbor list is
  /// arena_[offset, offset + len), inside a chunk of 2^cap_log2 slots
  /// (cap_log2 0: no chunk yet). A dead slot's record is all zero, so its
  /// len reads 0 without a liveness test.
  struct Record {
    std::uint32_t offset = 0;
    std::uint32_t len : 26 = 0;
    std::uint32_t cap_log2 : 5 = 0;
    std::uint32_t alive : 1 = 0;
  };
  static_assert(sizeof(Record) == 8);
  static_assert(kMaxDegree == (std::uint32_t{1} << 26) - 1,
                "kMaxDegree is the largest value Record::len holds");

  /// Smallest chunk: 8 slots covers the paper's typical join targets
  /// (1..10 neighbors) with at most one grow.
  static constexpr std::uint32_t kMinCapLog2 = 3;
  static constexpr std::uint32_t kMinCap = std::uint32_t{1} << kMinCapLog2;
  /// Size classes kMinCap << c for c in [0, kNumClasses): 8..2^26 slots,
  /// enough for a list of kMaxDegree neighbors.
  static constexpr std::size_t kNumClasses = 24;
  /// End of a free list. No chunk starts at this offset: a chunk has at
  /// least kMinCap slots and ends at or below kMaxArenaSlots.
  static constexpr std::uint32_t kNullChunk =
      std::numeric_limits<std::uint32_t>::max();

  struct FreeHeads {
    std::uint32_t head[kNumClasses];
    FreeHeads() noexcept {
      for (auto& h : head) h = kNullChunk;
    }
  };

  /// Takes a chunk of 2^cap_log2 slots from its free list, or else from the
  /// arena's end (throws std::length_error past kMaxArenaSlots).
  [[nodiscard]] std::uint32_t allocate_chunk(std::uint32_t cap_log2);
  /// Pushes a chunk on its free list; the link to the next free chunk lives
  /// in the chunk's first slot.
  void free_chunk(std::uint32_t offset, std::uint32_t cap_log2) noexcept;
  /// Appends `v` to id's adjacency, growing (and possibly relocating) the
  /// chunk; relocation preserves element order.
  void append_neighbor(NodeId id, NodeId v);
  void detach_from(NodeId node, NodeId neighbor) noexcept;

  std::vector<NodeId> arena_;
  std::vector<Record> records_;
  /// Index into alive_ for live nodes (kInvalidNode for a dead slot): the
  /// back-pointer remove_node needs, read by nothing else.
  std::vector<std::uint32_t> alive_pos_;
  std::vector<NodeId> alive_;
  FreeHeads free_heads_;
  std::size_t edges_ = 0;
  Counters counters_;
  MembershipObserver* observer_ = nullptr;
};

}  // namespace p2pse::net
