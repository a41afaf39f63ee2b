#pragma once
// Session-aware membership: maps external session identifiers (the unit of
// a churn trace — one id per join/leave pair) onto overlay NodeIds.
//
// Measurement-driven workloads (trace::ChurnTrace) speak in sessions, not
// NodeIds: a trace says "session 1729 joins at t=3.2 and leaves at t=41.7".
// SessionMembership performs the join (wiring the newcomer like the §IV-A
// builder via JoinPolicy) and remembers which node it created, so the later
// leave removes exactly that node — unlike ConstantChurn, which removes a
// uniformly random victim. Misuse (double join, leave of an unknown session)
// is a hard std::logic_error: a trace that survived validation can never
// trigger it, so hitting one means the trace and overlay went out of sync.

#include <cstdint>
#include <unordered_map>

#include "p2pse/net/churn.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::net {

using SessionId = std::uint64_t;

class SessionMembership {
 public:
  /// Binds to `graph`; joins wire newcomers according to `policy`.
  SessionMembership(Graph& graph, JoinPolicy policy = {}) noexcept
      : graph_(&graph), policy_(policy) {}

  /// Adopts the first `count` alive nodes (in alive-list order, i.e. build
  /// order for a freshly built overlay) as sessions 0..count-1 — the
  /// population a trace declares alive at t=0. Throws std::invalid_argument
  /// if the graph has fewer than `count` alive nodes.
  void adopt_initial(SessionId count);

  /// Joins `session`: adds one node wired via the policy and records the
  /// mapping. Throws std::logic_error if the session is already mapped.
  NodeId join(SessionId session, support::RngStream& rng);

  /// Ends `session`: removes its node (and incident edges, no healing).
  /// Returns the removed NodeId. Throws std::logic_error if the session was
  /// never joined or already left.
  NodeId leave(SessionId session);

  /// Number of sessions currently mapped to a node.
  [[nodiscard]] std::size_t active_sessions() const noexcept {
    return nodes_.size();
  }

 private:
  Graph* graph_;
  JoinPolicy policy_;
  std::unordered_map<SessionId, NodeId> nodes_;
};

}  // namespace p2pse::net
