#pragma once
// Flat probabilistic polling — the simplest member of the polling class the
// paper's §II describes ("the nodes send back a response with a probability
// depending on the probability parameter set in the broadcast message
// [2],[6]"). It is the natural baseline for HopsSampling: same broadcast
// phase, but a single flat reply probability p instead of the
// distance-graded schedule.
//
// The initiator floods a poll carrying p over the overlay (every reached
// node forwards to all neighbors once — a plain BFS flood costing ~2|E|
// messages); every polled node replies with probability p, and the
// initiator estimates N-hat = 1 + replies / p. Unbiased over the reached
// population, with Var = (1-p) * reached / p^2 — the paper's reason to
// grade p by distance is precisely to cut the reply flood near the
// initiator without the far-node variance explosion.


#include <limits>

#include "p2pse/est/estimator.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

struct FlatPollingConfig {
  double reply_probability = 0.05;  ///< p carried in the poll message
};

struct FlatPollingResult {
  Estimate estimate;
  std::size_t reached = 0;
  std::size_t replies = 0;
};

class FlatPolling final : public Estimator {
 public:
  static constexpr Info kInfo{"flat_polling", "poll", "Flat Polling",
                             Mode::kPoint};

  explicit FlatPolling(FlatPollingConfig config);

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<FlatPolling>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  /// One poll; also records its coverage for last_coverage().
  [[nodiscard]] Estimate estimate_point(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) override;
  [[nodiscard]] double last_coverage() const noexcept override {
    return last_coverage_;
  }

  /// Runs one flood + probabilistic report from `initiator`.
  [[nodiscard]] FlatPollingResult run_once(sim::Simulator& sim,
                                           net::NodeId initiator,
                                           support::RngStream& rng) const;

  [[nodiscard]] const FlatPollingConfig& config() const noexcept {
    return config_;
  }

 private:
  FlatPollingConfig config_;
  double last_coverage_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace p2pse::est
