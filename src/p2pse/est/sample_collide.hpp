#pragma once
// Sample&Collide (Massoulié, Le Merrer, Kermarrec, Ganesh — PODC'06 [15]),
// the paper's random-walk-class candidate.
//
// Uniform sampling: the initiator sets a timer T and sends it on a random
// walk. Each node v that receives the message draws U ~ U(0,1], decrements
// T by -log(U)/deg(v), and forwards to a uniform random neighbor while
// T > 0; otherwise v is the sample and reports back to the initiator.
// As T grows, the sample distribution converges to uniform on any graph
// (the walk is the jump chain of a continuous-time random walk whose
// stationary distribution is uniform).
//
// Estimation (inverted birthday paradox, generalized): keep sampling until
// `l` samples are repeats of already-seen ids; with C = total samples drawn,
//   Quadratic          : N-hat = C^2 / (2 l)          (the paper's form)
//   MaximumLikelihood  : solve sum_{d=0}^{D-1} d/(N-d) = l, D = distinct
// The paper runs T=10 and l in {10, 200}.

#include <cstdint>

#include "p2pse/est/estimator.hpp"
#include "p2pse/est/walk.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

enum class CollisionEstimator : std::uint8_t {
  kQuadratic,          ///< N-hat = C^2 / (2l)
  kMaximumLikelihood,  ///< exact MLE via bisection
};

struct SampleCollideConfig {
  double timer = 10.0;           ///< T: sampling-accuracy budget
  std::uint32_t collisions = 200;  ///< l: collision target (accuracy/cost)
  CollisionEstimator estimator = CollisionEstimator::kQuadratic;
  /// Safety bounds; generously above anything the paper's settings need.
  std::uint64_t max_walk_steps = 1u << 22;
  std::uint64_t max_samples = 1u << 26;
};

class SampleCollide final : public Estimator {
 public:
  static constexpr Info kInfo{"sample_collide", "sc", "Sample&Collide",
                             Mode::kPoint};

  explicit SampleCollide(SampleCollideConfig config);

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<SampleCollide>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  /// Runs one full estimation from `initiator` (samples until `l` collisions).
  /// Estimate.messages covers the walks and sample replies of this run.
  [[nodiscard]] Estimate estimate_point(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) override;

  /// Draws one (asymptotically) uniform sample starting from `initiator`.
  /// Counts one kWalkStep message per hop and one kSampleReply for the
  /// sample's report. An isolated initiator samples itself. Under a lossy
  /// channel every hop and the reply use bounded per-hop ARQ
  /// (sim::Channel::send_arq); when a hop or the reply is permanently lost
  /// the sample comes back with `lost == true` and the initiator must
  /// relaunch after its timeout.
  [[nodiscard]] WalkSample sample(sim::Simulator& sim, net::NodeId initiator,
                                  support::RngStream& rng) const;

  [[nodiscard]] const SampleCollideConfig& config() const noexcept {
    return config_;
  }

  /// Solves the exact collision MLE: find N with
  /// sum_{d=0}^{distinct-1} d/(N-d) == collisions. Exposed for testing.
  [[nodiscard]] static double solve_mle(std::uint64_t distinct,
                                        std::uint64_t collisions);

 private:
  /// Values a collision run of this estimator's samples: invalid when the
  /// sample bound stopped it before `l` collisions.
  [[nodiscard]] Estimate estimate_from(const CollisionRun& run,
                                       sim::Time now) const;

  SampleCollideConfig config_;
};

}  // namespace p2pse::est
