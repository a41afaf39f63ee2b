#pragma once
// Comparative-run driver: binds one overlay replica + one membership
// dynamics (a scripted scenario OR a replayable churn trace — anything
// implementing scenario::Dynamics) to an estimator and records the
// (time, true size, estimate) series the paper's figures plot. run() is the
// one way to drive an est::Estimator; it dispatches on the mode:
//
//  * point estimators (Sample&Collide, HopsSampling, RandomTour, ...) run an
//    atomic estimation every `interval` time units — churn advances between
//    estimations, matching the paper's "the monitoring process should sample
//    continuously" usage;
//  * epoch estimators (Aggregation, MultiAggregation) interleave churn with
//    gossip *rounds* (rounds_per_unit rounds per time unit) and produce one
//    estimate per epoch; this is what exposes the conservative effect under
//    shrinking membership.
//
// Independent replicas (different seed-derived RNG streams) are fanned out
// by harness::ParallelReplicaRunner; results are deterministic per
// (seed, replica) regardless of scheduling. The estimator prototype is
// clone()d once per run() call, so stateful estimators (smoothing windows,
// gossip values) never leak state across replicas.

#include <cstdint>
#include <memory>
#include <vector>

#include "p2pse/est/estimate.hpp"
#include "p2pse/est/estimator.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/scenario/dynamics.hpp"
#include "p2pse/scenario/replica.hpp"
#include "p2pse/scenario/timeline.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::scenario {

/// One sample of an estimation series.
struct SeriesPoint {
  double time = 0.0;
  double truth = 0.0;        ///< alive node count when the estimate completed
  double estimate = 0.0;
  bool valid = true;
  std::uint64_t messages = 0;  ///< cost of this estimate
  double delay = 0.0;  ///< measured wall-clock under the delivery channel
};

using Series = std::vector<SeriesPoint>;

class ScenarioRunner {
 public:
  /// `seed` is the root seed; replica r derives graph/estimator/churn
  /// substreams from split("replica", r).
  ScenarioRunner(ScenarioScript script, GraphFactory factory,
                 std::uint64_t seed);

  /// Generalized form: any membership dynamics (scripted or trace-driven).
  /// The Dynamics is shared, immutable, and bound once per replica.
  ScenarioRunner(std::shared_ptr<const Dynamics> dynamics,
                 GraphFactory factory, std::uint64_t seed);

  /// Unified entry point: clones `prototype` for this replica and drives it
  /// according to its mode. Deterministic per (seed, replica).
  [[nodiscard]] Series run(const est::Estimator& prototype,
                           const RunOptions& options,
                           std::uint64_t replica = 0) const;

  [[nodiscard]] const Dynamics& dynamics() const noexcept {
    return *dynamics_;
  }

 private:
  /// Point mode: `options.estimations` estimates, evenly spaced over the
  /// script duration (first estimation after one interval). The initiator
  /// is re-drawn only when the previous one dies.
  [[nodiscard]] Series run_point(est::Estimator& estimator,
                                 const RunOptions& options,
                                 std::uint64_t replica) const;
  [[nodiscard]] Series run_epochs(est::Estimator& estimator,
                                  const RunOptions& options,
                                  std::uint64_t replica) const;
  [[nodiscard]] net::NodeId ensure_initiator(const net::Graph& graph,
                                             net::NodeId current,
                                             support::RngStream& rng) const;

  std::shared_ptr<const Dynamics> dynamics_;
  GraphFactory factory_;
  std::uint64_t seed_;
};

}  // namespace p2pse::scenario
