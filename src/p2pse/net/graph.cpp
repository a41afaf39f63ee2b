#include "p2pse/net/graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "p2pse/support/check.hpp"

namespace p2pse::net {

Graph::Graph(std::size_t initial_nodes, std::size_t arena_slots) {
  reserve(initial_nodes, arena_slots);
  for (std::size_t i = 0; i < initial_nodes; ++i) add_node();
}

void Graph::reserve(std::size_t nodes, std::size_t arena_slots) {
  records_.reserve(nodes);
  alive_pos_.reserve(nodes);
  alive_.reserve(nodes);
  arena_.reserve(std::min(arena_slots, kMaxArenaSlots));
}

std::size_t Graph::arena_bound(std::size_t nodes,
                               std::size_t max_degree) noexcept {
  // One fresh chunk per class, kMinCap .. top, sums to 2 * top - kMinCap.
  const std::size_t top =
      std::bit_ceil(std::clamp<std::size_t>(max_degree, kMinCap, kMaxDegree));
  const std::size_t per_node = 2 * top - kMinCap;
  return nodes > kMaxArenaSlots / per_node ? kMaxArenaSlots : nodes * per_node;
}

std::uint32_t Graph::allocate_chunk(std::uint32_t cap_log2) {
  const std::size_t cls = cap_log2 - kMinCapLog2;
  const std::uint32_t recycled = free_heads_.head[cls];
  if (recycled != kNullChunk) {
    free_heads_.head[cls] = arena_[recycled];
    ++counters_.chunk_recycles;
    return recycled;
  }
  const std::size_t offset = arena_.size();
  const std::size_t cap = std::size_t{1} << cap_log2;
  if (cap > kMaxArenaSlots - offset) {
    throw std::length_error("Graph: adjacency arena would pass 2^32 slots");
  }
  arena_.resize(offset + cap);
  return static_cast<std::uint32_t>(offset);
}

void Graph::free_chunk(std::uint32_t offset, std::uint32_t cap_log2) noexcept {
  const std::size_t cls = cap_log2 - kMinCapLog2;
  arena_[offset] = free_heads_.head[cls];
  free_heads_.head[cls] = offset;
}

void Graph::append_neighbor(NodeId id, NodeId v) {
  Record& r = records_[id];
  if (r.cap_log2 == 0 || r.len == (std::uint32_t{1} << r.cap_log2)) {
    const std::uint32_t new_log2 =
        r.cap_log2 == 0 ? kMinCapLog2 : r.cap_log2 + 1;
    const std::uint32_t new_off = allocate_chunk(new_log2);
    // allocate_chunk may have grown arena_; r (a records_ reference) is
    // still valid, and the copy below reads the old chunk from the (possibly
    // reallocated, contents-preserving) arena.
    std::copy_n(arena_.begin() + r.offset, r.len, arena_.begin() + new_off);
    if (r.cap_log2 != 0) free_chunk(r.offset, r.cap_log2);
    r.offset = new_off;
    r.cap_log2 = new_log2;
  }
  arena_[r.offset + r.len] = v;
  ++r.len;
}

void Graph::detach_from(NodeId node, NodeId neighbor) noexcept {
  Record& r = records_[node];
  NodeId* const first = arena_.data() + r.offset;
  NodeId* const last = first + r.len;
  NodeId* const it = std::find(first, last, neighbor);
  if (it != last) {
    *it = *(last - 1);
    --r.len;
  }
}

NodeId Graph::add_node() {
  const auto id = static_cast<NodeId>(records_.size());
  Record fresh;
  fresh.alive = 1;
  records_.push_back(fresh);
  alive_pos_.push_back(static_cast<std::uint32_t>(alive_.size()));
  alive_.push_back(id);
  ++counters_.joins;
  if (observer_) observer_->on_join(id);
  return id;
}

void Graph::remove_node(NodeId id) {
  if (!is_alive(id)) return;
  ++counters_.leaves;
  // Alive-index contract: the dense alive list and the per-slot back
  // pointers must agree BEFORE the swap-remove below relies on them — and
  // an observer's on_leave must not have churned the graph re-entrantly.
  P2PSE_CHECK_MSG(alive_pos_[id] < alive_.size() &&
                      alive_[alive_pos_[id]] == id,
                  "Graph: alive-index bookkeeping corrupted");
  if (observer_) observer_->on_leave(id);
  P2PSE_CHECK_MSG(is_alive(id) && alive_[alive_pos_[id]] == id,
                  "Graph: observer mutated membership re-entrantly during "
                  "on_leave");
  // Detach from every neighbor; survivors keep their remaining links only.
  // detach_from only shrinks other nodes' lists (len--, chunks never move),
  // so reading this node's chunk while detaching is safe. The neighbor set
  // is known up front, so issue the dependent loads as two parallel
  // prefetch waves (records, then chunk heads) instead of one serial
  // miss chain per neighbor.
  const Record self = records_[id];
  const std::uint32_t offset = self.offset;
  const std::uint32_t len = self.len;
  for (std::uint32_t i = 0; i < len; ++i) {
    __builtin_prefetch(&records_[arena_[offset + i]], 1);
  }
  for (std::uint32_t i = 0; i < len; ++i) {
    __builtin_prefetch(arena_.data() + records_[arena_[offset + i]].offset, 1);
  }
  for (std::uint32_t i = 0; i < len; ++i) {
    detach_from(arena_[offset + i], id);
    --edges_;
  }
  // Recycle the chunk (the SoA analog of clear()+shrink_to_fit()).
  if (self.cap_log2 != 0) free_chunk(offset, self.cap_log2);
  records_[id] = Record{};
  // Swap-remove from the dense alive list, fixing the moved entry's index.
  const std::uint32_t pos = alive_pos_[id];
  const NodeId moved = alive_.back();
  alive_[pos] = moved;
  alive_pos_[moved] = pos;
  alive_.pop_back();
  alive_pos_[id] = kInvalidNode;
}

bool Graph::add_edge(NodeId a, NodeId b) {
  if (a == b) return false;
  // Endpoint-liveness contract: wiring a dead (or never-created) node is a
  // caller bug in checked builds. Unchecked builds keep the documented
  // tolerant behavior (return false) for callers that probe speculatively;
  // callers handling untrusted ids must test is_alive() first.
  P2PSE_CHECK_MSG(is_alive(a) && is_alive(b),
                  "Graph::add_edge: dead or out-of-range endpoint");
  if (!is_alive(a) || !is_alive(b)) return false;
  // Dedup scan over the smaller adjacency list (degrees are small: <=10 on
  // the paper's graphs, hub-sized only on scale-free topologies).
  const Record ra = records_[a];
  const Record rb = records_[b];
  const bool scan_a = ra.len <= rb.len;
  const Record scan = scan_a ? ra : rb;
  const NodeId probe = scan_a ? b : a;
  const NodeId* const first = arena_.data() + scan.offset;
  const NodeId* const last = first + scan.len;
  if (std::find(first, last, probe) != last) return false;
  if (ra.len == kMaxDegree || rb.len == kMaxDegree) {
    throw std::length_error("Graph: node degree would pass kMaxDegree");
  }
  append_neighbor(a, b);
  try {
    append_neighbor(b, a);
  } catch (...) {
    // Leave the edge out on both sides; a keeps its (possibly grown) chunk.
    --records_[a].len;
    throw;
  }
  ++edges_;
  return true;
}

bool Graph::remove_edge(NodeId a, NodeId b) {
  if (a == b || !is_alive(a) || !is_alive(b)) return false;
  Record& ra = records_[a];
  NodeId* const first = arena_.data() + ra.offset;
  NodeId* const last = first + ra.len;
  NodeId* const it = std::find(first, last, b);
  if (it == last) return false;
  *it = *(last - 1);
  --ra.len;
  detach_from(b, a);
  --edges_;
  return true;
}

double Graph::average_degree() const noexcept {
  if (alive_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edges_) / static_cast<double>(alive_.size());
}

std::size_t Graph::arena_free() const noexcept {
  std::size_t free_slots = 0;
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    const std::size_t cap = std::size_t{kMinCap} << cls;
    for (std::uint32_t off = free_heads_.head[cls]; off != kNullChunk;
         off = arena_[off]) {
      free_slots += cap;
    }
  }
  return free_slots;
}

}  // namespace p2pse::net
