#include "p2pse/net/session.hpp"

#include <stdexcept>
#include <string>

#include "p2pse/support/check.hpp"

namespace p2pse::net {

void SessionMembership::adopt_initial(SessionId count) {
  const std::span<const NodeId> alive = graph_->alive_nodes();
  if (alive.size() < count) {
    throw std::invalid_argument(
        "SessionMembership: trace declares " + std::to_string(count) +
        " initial sessions but the overlay has only " +
        std::to_string(alive.size()) + " alive nodes");
  }
  nodes_.reserve(nodes_.size() + static_cast<std::size_t>(count));
  for (SessionId session = 0; session < count; ++session) {
    const auto [it, inserted] =
        nodes_.emplace(session, alive[static_cast<std::size_t>(session)]);
    if (!inserted) {
      throw std::logic_error("SessionMembership: initial session " +
                             std::to_string(session) + " adopted twice");
    }
  }
}

NodeId SessionMembership::join(SessionId session, support::RngStream& rng) {
  const NodeId id = join_node(*graph_, policy_, rng);
  const auto [it, inserted] = nodes_.emplace(session, id);
  if (!inserted) {
    graph_->remove_node(id);
    throw std::logic_error("SessionMembership: session " +
                           std::to_string(session) + " joined twice");
  }
  return id;
}

NodeId SessionMembership::leave(SessionId session) {
  const auto it = nodes_.find(session);
  if (it == nodes_.end()) {
    throw std::logic_error("SessionMembership: leave of unknown session " +
                           std::to_string(session));
  }
  const NodeId id = it->second;
  // Desync contract: the session's node must still be alive — if something
  // removed it behind SessionMembership's back (direct Graph::remove_node,
  // a second churn driver on the same overlay), every later leave would
  // silently no-op and the replayed size trajectory would drift.
  P2PSE_CHECK_MSG(graph_->is_alive(id),
                  "SessionMembership: session " + std::to_string(session) +
                      "'s node was removed behind the membership's back");
  nodes_.erase(it);
  graph_->remove_node(id);
  return id;
}

}  // namespace p2pse::net
