#pragma once
// Gossip-based Aggregation (Jelasity & Montresor — ICDCS'04 [9]), the
// paper's epidemic-class candidate.
//
// COUNT aggregate: at epoch start the initiator holds value 1 and every
// other node 0; each round every node exchanges values with one uniformly
// random neighbor and both adopt the average (push-pull). Values converge to
// 1/N, so each node can locally compute the size as 1/value. Overhead is
// 2 * N * rounds messages per epoch (§IV-E).
//
// Dynamic operation (§IV-D-k): estimation epochs are restarted at fixed
// intervals using per-epoch tags; a node first contacted within a new epoch
// joins with value 0 (the "conservative effect": mid-epoch arrivals and
// departures are not tracked; departures remove their mass from the system,
// which is what makes shrinking scenarios hard for this algorithm).

#include <cstdint>
#include <vector>

#include "p2pse/est/estimator.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

struct AggregationConfig {
  std::uint32_t rounds_per_epoch = 50;  ///< paper: 40 suffice at 1e5, 50 at 1e6
  bool push_pull = true;  ///< false = push-only averaging (ablation)
};

class Aggregation final : public Estimator {
 public:
  static constexpr Info kInfo{"aggregation", "agg", "Aggregation",
                             Mode::kEpoch};

  explicit Aggregation(AggregationConfig config);

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<Aggregation>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  void start_epoch(sim::Simulator& sim, net::NodeId initiator,
                   support::RngStream&) override {
    start_epoch(sim, initiator);
  }
  [[nodiscard]] Estimate epoch_estimate(const sim::Simulator& sim,
                                        net::NodeId reader) const override {
    return estimate_at(sim, reader);
  }
  [[nodiscard]] std::uint32_t rounds_per_epoch() const noexcept override {
    return config_.rounds_per_epoch;
  }

  /// Starts a new epoch: every currently-alive node resets to 0, the
  /// initiator to 1 (realizes the paper's tag-based reinitialization).
  void start_epoch(sim::Simulator& sim, net::NodeId initiator);

  /// Runs one synchronous push-pull round over all alive nodes.
  /// Nodes created after the epoch started join with value 0.
  /// Under a lossy channel an exchange with a dropped push or pull is
  /// masked — neither side commits (ack-gated, so mass stays conserved and
  /// loss only slows convergence); the round's wall-clock is the slowest
  /// delivered exchange, accumulated into the epoch's measured delay.
  void run_round(sim::Simulator& sim, support::RngStream& rng) override;

  /// Local value held by a node (0 if never touched this epoch).
  [[nodiscard]] double value_at(net::NodeId id) const noexcept;

  /// Local size estimate 1/value; invalid when the value is <= 0 (node was
  /// never reached, or mass drained by churn).
  [[nodiscard]] Estimate estimate_at(const sim::Simulator& sim,
                                     net::NodeId id) const noexcept;

  /// Sum of all alive nodes' values — conserved under static membership.
  [[nodiscard]] double total_mass(const sim::Simulator& sim) const;

  [[nodiscard]] const AggregationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] net::NodeId initiator() const noexcept { return initiator_; }

 private:
  void ensure_capacity(std::size_t slots);

  AggregationConfig config_;
  std::vector<double> values_;
  std::uint64_t epoch_ = 0;
  double epoch_delay_ = 0.0;
  net::NodeId initiator_ = net::kInvalidNode;
};

}  // namespace p2pse::est
