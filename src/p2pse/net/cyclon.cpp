#include "p2pse/net/cyclon.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace p2pse::net {

CyclonOverlay::CyclonOverlay(std::size_t nodes, CyclonConfig config,
                             support::RngStream rng)
    : config_(config), rng_(rng) {
  if (config_.view_size == 0) {
    throw std::invalid_argument("Cyclon: view_size must be >= 1");
  }
  if (config_.shuffle_length == 0 ||
      config_.shuffle_length > config_.view_size) {
    throw std::invalid_argument(
        "Cyclon: shuffle_length must be in [1, view_size]");
  }
  members_.resize(nodes);
  alive_ids_.reserve(nodes);
  for (std::uint32_t id = 0; id < nodes; ++id) {
    members_[id].alive = true;
    alive_ids_.push_back(id);
  }
  alive_count_ = nodes;
  if (nodes < 2) return;
  // Bootstrap: ring successor (guarantees weak connectivity) + random fill.
  for (std::uint32_t id = 0; id < nodes; ++id) {
    Member& m = members_[id];
    m.view.push_back(Entry{static_cast<std::uint32_t>((id + 1) % nodes), 0});
    while (m.view.size() < config_.view_size) {
      const auto candidate =
          static_cast<std::uint32_t>(rng_.uniform_u64(nodes));
      if (candidate == id || contains(m, candidate)) {
        if (m.view.size() >= nodes - 1) break;  // tiny overlays saturate
        continue;
      }
      m.view.push_back(Entry{candidate, 0});
    }
  }
}

bool CyclonOverlay::contains(const Member& member, std::uint32_t node) const {
  return std::any_of(member.view.begin(), member.view.end(),
                     [node](const Entry& e) { return e.node == node; });
}

void CyclonOverlay::merge_view(Member& member, std::uint32_t self,
                               const std::vector<Entry>& incoming,
                               const std::vector<std::size_t>& /*sent_slots*/) {
  for (const Entry& entry : incoming) {
    if (entry.node == self) continue;
    if (!members_[entry.node].alive) continue;  // don't readopt the dead
    if (contains(member, entry.node)) continue;
    if (member.view.size() < config_.view_size) {
      member.view.push_back(entry);
    }
  }
}

void CyclonOverlay::shuffle_from(std::uint32_t initiator) {
  Member& m = members_[initiator];
  for (Entry& e : m.view) ++e.age;

  // Dial the oldest live entry; dead entries are discarded on failed dials
  // (each failed dial still costs the request message, like a timeout).
  std::uint32_t target = 0;
  bool found = false;
  while (!m.view.empty()) {
    const auto oldest = static_cast<std::size_t>(
        std::max_element(m.view.begin(), m.view.end(),
                         [](const Entry& a, const Entry& b) {
                           return a.age < b.age;
                         }) -
        m.view.begin());
    target = m.view[oldest].node;
    m.view[oldest] = m.view.back();
    m.view.pop_back();
    if (members_[target].alive) {
      found = true;
      break;
    }
    ++messages_;  // timed-out dial
  }
  if (!found) return;

  // Outgoing subset: fresh self-pointer + up to shuffle_length-1 random
  // entries, which are REMOVED from the initiator's view (they travel).
  std::vector<Entry> outgoing{Entry{initiator, 0}};
  const std::size_t take =
      std::min(config_.shuffle_length - 1, m.view.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto slot =
        static_cast<std::size_t>(rng_.uniform_u64(m.view.size()));
    outgoing.push_back(m.view[slot]);
    m.view[slot] = m.view.back();
    m.view.pop_back();
  }

  // Target builds its reply the same way (no self-pointer).
  Member& t = members_[target];
  std::vector<Entry> reply;
  const std::size_t give = std::min(config_.shuffle_length, t.view.size());
  for (std::size_t i = 0; i < give; ++i) {
    const auto slot =
        static_cast<std::size_t>(rng_.uniform_u64(t.view.size()));
    reply.push_back(t.view[slot]);
    t.view[slot] = t.view.back();
    t.view.pop_back();
  }

  messages_ += 2;  // request + reply
  merge_view(t, target, outgoing, {});
  merge_view(m, initiator, reply, {});
  // The initiator re-learns the target with age 0 if capacity remains —
  // keeps the shuffled pair connected, as in the protocol.
  if (!contains(m, target) && m.view.size() < config_.view_size) {
    m.view.push_back(Entry{target, 0});
  }
}

void CyclonOverlay::run_round() {
  // Shuffles never change membership, so the live ids are stable here.
  for (const std::uint32_t id : alive_ids_) shuffle_from(id);
}

void CyclonOverlay::remove_member(std::uint32_t id) {
  if (id >= members_.size() || !members_[id].alive) return;
  members_[id].alive = false;
  members_[id].view.clear();
  const auto it = std::find(alive_ids_.begin(), alive_ids_.end(), id);
  if (it != alive_ids_.end()) {
    *it = alive_ids_.back();
    alive_ids_.pop_back();
  }
  --alive_count_;
}

std::vector<std::uint32_t> CyclonOverlay::view_of(std::uint32_t id) const {
  std::vector<std::uint32_t> out;
  if (id >= members_.size()) return out;
  out.reserve(members_[id].view.size());
  for (const Entry& e : members_[id].view) out.push_back(e.node);
  return out;
}

Graph CyclonOverlay::materialize(
    std::vector<std::uint32_t>* original_ids) const {
  std::unordered_map<std::uint32_t, NodeId> dense;
  dense.reserve(alive_count_);
  std::vector<std::uint32_t> ordered = alive_ids_;
  std::sort(ordered.begin(), ordered.end());
  Graph graph(ordered.size());
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    dense.emplace(ordered[i], static_cast<NodeId>(i));
  }
  for (const std::uint32_t id : ordered) {
    for (const Entry& e : members_[id].view) {
      if (e.node >= members_.size() || !members_[e.node].alive) continue;
      graph.add_edge(dense[id], dense[e.node]);  // dedups internally
    }
  }
  if (original_ids != nullptr) *original_ids = std::move(ordered);
  return graph;
}

}  // namespace p2pse::net
