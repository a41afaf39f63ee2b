#pragma once
// The convergence diagnostic the Aggregation tests measure rounds with.
// No figure reads it, so it lives with the tests.

#include <cmath>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/stats.hpp"

namespace p2pse::est::oracle {

/// Coefficient of variation of the local values across alive nodes
/// (0 = fully converged).
[[nodiscard]] inline double value_dispersion(const Aggregation& agg,
                                             const sim::Simulator& sim) {
  support::RunningStats stats;
  for (const net::NodeId id : sim.graph().alive_nodes()) {
    stats.add(agg.value_at(id));
  }
  if (stats.count() == 0 || stats.mean() == 0.0) return 0.0;
  return stats.stddev() / std::abs(stats.mean());
}

}  // namespace p2pse::est::oracle
