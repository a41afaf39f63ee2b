#pragma once
// Estimation-delay analysis under a per-hop latency model (see
// sim/latency.hpp for the composition rules per algorithm). Implements the
// paper's §V conjecture as a measurable quantity: run each algorithm on the
// overlay, record its structural statistics (walk lengths, spread depth,
// rounds), then convert them into wall-clock delay.

#include <cstdint>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/sim/latency.hpp"
#include "p2pse/sim/simulator.hpp"

namespace p2pse::est {

struct DelayConfig {
  sim::LatencyModel hop_latency = sim::LatencyModel::constant(1.0);
  /// Aggregation's gossip period per round, as a multiple of the mean hop
  /// round-trip (a round must at least fit one request + one reply).
  double aggregation_period_hops = 2.0;
};

struct DelayBreakdown {
  double total = 0.0;          ///< wall-clock units until the estimate exists
  std::uint64_t messages = 0;  ///< cost of the same run, for the trade-off
  double estimate = 0.0;       ///< the estimate the run produced
};

/// Sample&Collide: sequential walks, sequential samples. Runs one real
/// estimation (the estimator's collision loop, so a lost walk is no sample)
/// and accumulates the latency of every hop and reply.
[[nodiscard]] DelayBreakdown sample_collide_delay(sim::Simulator& sim,
                                                  const SampleCollide& sc,
                                                  net::NodeId initiator,
                                                  const DelayConfig& config,
                                                  support::RngStream& rng);

/// HopsSampling: parallel spread of depth d costs d hop latencies (the
/// per-round maximum is approximated by the mean hop latency times depth),
/// plus one reply hop.
[[nodiscard]] DelayBreakdown hops_sampling_delay(sim::Simulator& sim,
                                                 const HopsSampling& hs,
                                                 net::NodeId initiator,
                                                 const DelayConfig& config,
                                                 support::RngStream& rng);

/// Aggregation: rounds * period (period expressed in hop round-trips).
[[nodiscard]] DelayBreakdown aggregation_delay(sim::Simulator& sim,
                                               Aggregation& agg,
                                               net::NodeId initiator,
                                               const DelayConfig& config,
                                               support::RngStream& rng);

}  // namespace p2pse::est
