#include "p2pse/net/graph.hpp"

#include <algorithm>
#include <bit>

#include "p2pse/support/check.hpp"

namespace p2pse::net {

Graph::Graph(std::size_t initial_nodes) {
  reserve(initial_nodes);
  for (std::size_t i = 0; i < initial_nodes; ++i) add_node();
}

void Graph::reserve(std::size_t nodes) {
  extents_.reserve(nodes);
  degree_.reserve(nodes);
  alive_pos_.reserve(nodes);
  alive_.reserve(nodes);
}

std::size_t Graph::class_of(std::uint32_t cap) noexcept {
  // cap is always a power of two >= kMinCap here; class 0 holds kMinCap.
  return static_cast<std::size_t>(std::countr_zero(cap)) -
         static_cast<std::size_t>(std::countr_zero(kMinCap));
}

std::uint64_t Graph::allocate_chunk(std::uint32_t cap) {
  const std::size_t cls = class_of(cap);
  const std::uint64_t recycled = free_heads_.head[cls];
  if (recycled != kNullChunk) {
    free_heads_.head[cls] = read_link(recycled);
    ++counters_.chunk_recycles;
    return recycled;
  }
  const std::uint64_t offset = arena_.size();
  arena_.resize(offset + cap);
  return offset;
}

void Graph::free_chunk(std::uint64_t offset, std::uint32_t cap) noexcept {
  const std::size_t cls = class_of(cap);
  write_link(offset, free_heads_.head[cls]);
  free_heads_.head[cls] = offset;
}

void Graph::append_neighbor(NodeId id, NodeId v) {
  Extent& e = extents_[id];
  if (e.len == e.cap) {
    const std::uint32_t new_cap = e.cap == 0 ? kMinCap : e.cap * 2;
    const std::uint64_t new_off = allocate_chunk(new_cap);
    // allocate_chunk may have grown arena_; e (an extents_ reference) is
    // still valid, and the copy below reads the old chunk from the (possibly
    // reallocated, contents-preserving) arena.
    std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(e.offset), e.len,
                arena_.begin() + static_cast<std::ptrdiff_t>(new_off));
    if (e.cap != 0) free_chunk(e.offset, e.cap);
    e.offset = new_off;
    e.cap = new_cap;
  }
  arena_[e.offset + e.len] = v;
  ++e.len;
  ++degree_[id];
}

void Graph::detach_from(NodeId node, NodeId neighbor) noexcept {
  Extent& e = extents_[node];
  NodeId* const first = arena_.data() + e.offset;
  NodeId* const last = first + e.len;
  NodeId* const it = std::find(first, last, neighbor);
  if (it != last) {
    *it = *(last - 1);
    --e.len;
    --degree_[node];
  }
}

NodeId Graph::add_node() {
  const auto id = static_cast<NodeId>(extents_.size());
  extents_.emplace_back();
  degree_.push_back(0);
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
  // prefetch waves (extents, then chunk heads) instead of one serial
  // miss chain per neighbor.
  const std::uint64_t offset = extents_[id].offset;
  const std::uint32_t len = extents_[id].len;
  for (std::uint32_t i = 0; i < len; ++i) {
    const NodeId nb = arena_[offset + i];
    __builtin_prefetch(&extents_[nb], 1);
    __builtin_prefetch(&degree_[nb], 1);
  }
  for (std::uint32_t i = 0; i < len; ++i) {
    __builtin_prefetch(arena_.data() + extents_[arena_[offset + i]].offset, 1);
  }
  for (std::uint32_t i = 0; i < len; ++i) {
    detach_from(arena_[offset + i], id);
    --edges_;
  }
  // Recycle the chunk (the SoA analog of clear()+shrink_to_fit()).
  if (extents_[id].cap != 0) free_chunk(offset, extents_[id].cap);
  extents_[id] = Extent{};
  degree_[id] = 0;
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
  const Extent& ea = extents_[a];
  const Extent& eb = extents_[b];
  const bool scan_a = ea.len <= eb.len;
  const Extent& scan = scan_a ? ea : eb;
  const NodeId probe = scan_a ? b : a;
  const NodeId* const first = arena_.data() + scan.offset;
  const NodeId* const last = first + scan.len;
  if (std::find(first, last, probe) != last) return false;
  append_neighbor(a, b);
  append_neighbor(b, a);
  ++edges_;
  return true;
}

bool Graph::remove_edge(NodeId a, NodeId b) {
  if (a == b || !is_alive(a) || !is_alive(b)) return false;
  Extent& ea = extents_[a];
  NodeId* const first = arena_.data() + ea.offset;
  NodeId* const last = first + ea.len;
  NodeId* const it = std::find(first, last, b);
  if (it == last) return false;
  *it = *(last - 1);
  --ea.len;
  --degree_[a];
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
    const std::uint32_t cap = kMinCap << cls;
    for (std::uint64_t off = free_heads_.head[cls]; off != kNullChunk;
         off = read_link(off)) {
      free_slots += cap;
    }
  }
  return free_slots;
}

}  // namespace p2pse::net
