#pragma once
// Random Tour (Massoulié et al., PODC'06 [15]) — the random-walk baseline
// the paper's §II cites to justify choosing Sample&Collide ("the overhead of
// the Sample&Collide algorithm is much lower than the one of Random Tour").
//
// A walk leaves the initiator i and accumulates Phi = sum 1/deg(X_t) over
// visited nodes (the initiator included once) until it first returns to i.
// Since the expected per-cycle visit count of node j is pi_j / pi_i with
// pi_j proportional to deg(j), E[Phi * deg(i)] = N: the estimator
// N-hat = deg(i) * Phi is unbiased, but its variance and cost scale with the
// return time Theta(|E|/deg(i)), which is why Sample&Collide supersedes it.

#include <cstdint>

#include "p2pse/est/estimator.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

struct RandomTourConfig {
  /// Abort bound: tours longer than this produce an invalid estimate.
  /// Expected tour length is 2|E|/deg(initiator).
  std::uint64_t max_steps = 1u << 26;
};

class RandomTour final : public Estimator {
 public:
  static constexpr Info kInfo{"random_tour", "tour", "Random Tour",
                             Mode::kPoint};

  explicit RandomTour(RandomTourConfig config = {}) noexcept
      : Estimator(kInfo), config_(config) {}

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<RandomTour>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  /// Runs one tour from `initiator`. Each hop counts one kWalkStep message.
  [[nodiscard]] Estimate estimate_point(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) override;

  [[nodiscard]] const RandomTourConfig& config() const noexcept {
    return config_;
  }

 private:
  RandomTourConfig config_;
};

}  // namespace p2pse::est
