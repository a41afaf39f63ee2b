#pragma once
// Multi-instance aggregation, from the same source as the paper's third
// candidate (Jelasity & Montresor, ICDCS'04 [9]): running t concurrent
// COUNT instances — each with its own initiator — and reporting the median
// (or mean) of the per-instance estimates sharply reduces the variance
// caused by unlucky early exchanges, at no extra message cost when the t
// values piggyback on the same gossip exchanges (which is how [9] deploys
// it, and how the meter charges it here: 2 messages per exchange regardless
// of t).

#include <cstdint>
#include <vector>

#include "p2pse/est/estimator.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

struct MultiAggregationConfig {
  std::uint32_t rounds_per_epoch = 50;
  std::uint32_t instances = 8;  ///< t concurrent COUNT instances
  enum class Combine { kMedian, kMean } combine = Combine::kMedian;
};

class MultiAggregation final : public Estimator {
 public:
  static constexpr Info kInfo{"aggregation_suite", "suite", "MultiAggregation",
                             Mode::kEpoch};

  explicit MultiAggregation(MultiAggregationConfig config);

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<MultiAggregation>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  /// The instances draw their own initiators; `initiator` is unused.
  void start_epoch(sim::Simulator& sim, net::NodeId,
                   support::RngStream& rng) override {
    start_epoch(sim, rng);
  }
  [[nodiscard]] Estimate epoch_estimate(const sim::Simulator& sim,
                                        net::NodeId reader) const override {
    return estimate_at(sim, reader);
  }
  [[nodiscard]] std::uint32_t rounds_per_epoch() const noexcept override {
    return config_.rounds_per_epoch;
  }

  /// Starts an epoch: instance i's initiator is drawn uniformly (distinct
  /// where possible); every other node holds 0 in that instance.
  void start_epoch(sim::Simulator& sim, support::RngStream& rng);

  /// One synchronous push-pull round; all instances ride each exchange.
  void run_round(sim::Simulator& sim, support::RngStream& rng) override;

  /// Combined estimate at a node (median/mean over instances' 1/value).
  [[nodiscard]] Estimate estimate_at(const sim::Simulator& sim,
                                     net::NodeId id) const;

  /// Per-instance estimates at a node (invalid entries skipped by
  /// estimate_at's combiner).
  [[nodiscard]] std::vector<double> instance_estimates(net::NodeId id) const;

  /// Local value of one gossip instance at a node (0 when untouched this
  /// epoch or out of range).
  // p2pse-lint: allow(no-caller) tests pin each instance's mass and values
  [[nodiscard]] double value_of(std::uint32_t instance,
                                net::NodeId id) const noexcept;

  [[nodiscard]] const MultiAggregationConfig& config() const noexcept {
    return config_;
  }

 private:
  void ensure_capacity(std::size_t slots);

  MultiAggregationConfig config_;
  /// values_[i] is instance i's value vector, indexed by node slot.
  std::vector<std::vector<double>> values_;
  double epoch_delay_ = 0.0;
};

}  // namespace p2pse::est
