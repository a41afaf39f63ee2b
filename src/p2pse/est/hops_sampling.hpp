#pragma once
// HopsSampling (Kostoulas, Psaltoulis, Gupta, Birman, Demers — NCA'05 [11],
// PODC'04 [17]), the paper's probabilistic-polling candidate, using the
// minHopsReporting heuristic and the parameter values the paper states:
// gossipTo=2, gossipFor=1, gossipUntil=1, minHopsReporting=5.
//
// Phase 1 (spread): the initiator gossips a poll; every node remembers the
// minimal hopCount it has seen (= its estimated distance). A node forwards
// `gossipTo` copies per round for `gossipFor` rounds, and stops reacting
// after having received the poll `gossipUntil` times. The spread reaches only
// part of the overlay (~89% at 1e5 nodes with the paper's parameters), which
// the paper identifies as the source of HopsSampling's systematic
// under-estimation.
//
// Phase 2 (report): a node at distance h replies with probability 1 when
// h <= minHopsReporting and gossipTo^-(h - minHopsReporting) otherwise. The
// initiator extrapolates: each reply from distance h counts for
// gossipTo^max(0, h - minHopsReporting) nodes.
//
// The `oracle_distances` variant implements the §V verification experiment:
// every node is given its true BFS distance (full reach, exact distances),
// isolating the reporting estimator from the spread's imperfections.

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "p2pse/est/estimator.hpp"
#include "p2pse/est/smoothing.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

struct HopsSamplingConfig {
  std::uint32_t gossip_to = 2;
  std::uint32_t gossip_for = 1;
  std::uint32_t gossip_until = 1;
  std::uint32_t min_hops_reporting = 5;
  std::uint32_t max_spread_rounds = 100'000;  ///< safety bound
  bool oracle_distances = false;  ///< §V: BFS distances, full participation
  std::size_t last_k = 0;  ///< 0 = oneShot; K >= 1 = lastKruns smoothing
};

struct HopsSamplingResult {
  Estimate estimate;
  std::size_t reached = 0;   ///< nodes that received the poll (incl. initiator)
  std::size_t replies = 0;   ///< responses sent back
  std::uint32_t spread_rounds = 0;
  std::uint32_t max_distance = 0;  ///< largest per-node min-hop value observed
  /// Wall-clock of the spread phase under the channel: per round, the
  /// frontier advances in parallel, so a round costs the maximum latency
  /// among its delivered messages (0 on the ideal channel).
  double spread_delay = 0.0;
};

class HopsSampling final : public Estimator {
 public:
  static constexpr Info kInfo{"hops_sampling", "hs", "HopsSampling",
                             Mode::kPoint};

  explicit HopsSampling(HopsSamplingConfig config);

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<HopsSampling>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  /// One poll, smoothed over the last `last_k` polls when configured; also
  /// records the poll's coverage for last_coverage().
  [[nodiscard]] Estimate estimate_point(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) override;
  [[nodiscard]] double last_coverage() const noexcept override {
    return last_coverage_;
  }

  /// Runs one complete poll (spread + report) from `initiator`.
  [[nodiscard]] HopsSamplingResult run_once(sim::Simulator& sim,
                                            net::NodeId initiator,
                                            support::RngStream& rng) const;

  [[nodiscard]] const HopsSamplingConfig& config() const noexcept {
    return config_;
  }

  /// Reply probability for a node at distance `hops` (exposed for tests).
  [[nodiscard]] double reply_probability(std::uint32_t hops) const noexcept;

  /// Phase 1 alone (exposed for tests): gossips the poll from `initiator`,
  /// writing each reached node's minimal hop count into `min_hops` (sized
  /// slot_count(), every entry net::kUnreached on entry) and filling
  /// result.reached, spread_rounds and spread_delay.
  void spread(sim::Simulator& sim, net::NodeId initiator,
              support::RngStream& rng, std::vector<std::uint32_t>& min_hops,
              HopsSamplingResult& result) const;

 private:
  HopsSamplingConfig config_;
  std::optional<LastKAverage> smoother_;
  double last_coverage_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace p2pse::est
