#pragma once
// Membership dynamics (§IV-D): arrivals wire like the §IV-A builder;
// departures remove nodes and all incident links with NO healing.
// Three primitives cover the paper's scenarios: constant-rate churn
// (growing/shrinking networks), catastrophic failures (bulk removal), and
// growth bursts (bulk arrival).

#include <cstddef>

#include "p2pse/net/graph.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::net {

/// Wiring policy for joining nodes, mirroring the builder's degree model.
struct JoinPolicy {
  std::size_t min_degree = 1;
  std::size_t max_degree = 10;
};

/// Adds one node, wiring it to up to a uniform-random [min,max] number of
/// distinct alive peers below max_degree. Returns the new id. Best-effort if
/// the overlay is too small or saturated to satisfy the target.
NodeId join_node(Graph& graph, const JoinPolicy& policy,
                 support::RngStream& rng);

/// Adds `count` nodes via join_node.
void add_nodes(Graph& graph, std::size_t count, const JoinPolicy& policy,
               support::RngStream& rng);

/// Removes `count` uniformly random alive nodes (clamped to current size),
/// without healing.
void remove_random_nodes(Graph& graph, std::size_t count,
                         support::RngStream& rng);

/// Removes floor(fraction * size) random alive nodes. `fraction` in [0,1].
/// Returns the number removed.
std::size_t remove_fraction(Graph& graph, double fraction,
                            support::RngStream& rng);

/// Constant-rate churn with fractional accumulation: step(dt) performs the
/// integer part of accumulated arrivals/departures. Rates are per time unit.
class ConstantChurn {
 public:
  ConstantChurn(double arrival_rate, double departure_rate,
                JoinPolicy policy = {}) noexcept
      : arrival_rate_(arrival_rate), departure_rate_(departure_rate),
        policy_(policy) {}

  /// Applies dt time units of churn to the graph.
  void step(Graph& graph, double dt, support::RngStream& rng);

  /// Changes the rates in place, carrying the accumulated fractional
  /// arrival/departure credit over. Rebuilding the object instead would
  /// silently drop up to one node of credit per rate change — a systematic
  /// under-churn in scripts that flip rates often (e.g. oscillating).
  void set_rates(double arrival_rate, double departure_rate) noexcept {
    arrival_rate_ = arrival_rate;
    departure_rate_ = departure_rate;
  }

  [[nodiscard]] double arrival_rate() const noexcept { return arrival_rate_; }
  [[nodiscard]] double departure_rate() const noexcept { return departure_rate_; }

 private:
  double arrival_rate_;
  double departure_rate_;
  JoinPolicy policy_;
  double arrival_credit_ = 0.0;
  double departure_credit_ = 0.0;
};

}  // namespace p2pse::net
