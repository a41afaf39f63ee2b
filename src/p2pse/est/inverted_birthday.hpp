#pragma once
// Plain Inverted Birthday Paradox estimator (Bawa, Garcia-Molina, Gionis,
// Motwani — Stanford TR 2003 [2]) with the naive sampling scheme
// Sample&Collide was designed to replace: samples come from the END of a
// FIXED-LENGTH random walk, whose stationary distribution is proportional to
// node degree — i.e. biased on heterogeneous graphs.
//
// Kept as a baseline to demonstrate (a) why unbiased sampling matters on
// scale-free topologies (high-degree nodes are oversampled, collisions come
// too early, sizes are under-estimated) and (b) the accuracy gain of
// Sample&Collide's l-collision generalization over first-collision stopping.

#include <cstdint>

#include "p2pse/est/estimator.hpp"
#include "p2pse/est/walk.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

struct InvertedBirthdayConfig {
  std::uint32_t walk_length = 30;  ///< fixed hop count per sample, >= 1
  std::uint32_t collisions = 1;    ///< classic first-collision stopping
  std::uint64_t max_samples = 1u << 26;
};

class InvertedBirthday final : public Estimator {
 public:
  static constexpr Info kInfo{"inverted_birthday", "ibp", "Inverted Birthday",
                             Mode::kPoint};

  explicit InvertedBirthday(InvertedBirthdayConfig config);

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<InvertedBirthday>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  /// Samples until `collisions` repeats and returns N-hat = C^2 / (2 l).
  /// Each sample is the endpoint of a fixed-length walk, degree-biased.
  /// Fixed-length walks carry no timer state, so loss handling matches the
  /// walk-class convention: hop-reliable forwarding, bounded-ARQ reply. A
  /// permanently lost reply means the initiator never learns the sample (it
  /// times out and launches the next walk, as in Sample&Collide).
  [[nodiscard]] Estimate estimate_point(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) override;

  [[nodiscard]] const InvertedBirthdayConfig& config() const noexcept {
    return config_;
  }

 private:
  InvertedBirthdayConfig config_;
};

}  // namespace p2pse::est
