#pragma once
// Per-message latency models — the paper's stated future work ("the
// physical network modeling would be an interesting goal") and the basis of
// its §V delay conjecture: "HopsSampling probably outperforms the other
// algorithms in terms of delay ... a gossip based broadcast and an
// immediate ACK response ... is very likely to be much shorter than the 50
// rounds of Aggregation or the wait for 200 equivalent samples of
// Sample&Collide".
//
// sim::Channel draws one of these per delivered transmission, and each
// protocol composes the draws into its Estimate::delay as it runs:
//  * walks are SEQUENTIAL — est::collide sums every hop and reply of a
//    Sample&Collide sample, and samples run one after another (the
//    initiator needs the previous sample to decide whether to stop);
//  * the HopsSampling spread advances in PARALLEL — each round costs its
//    slowest delivered message, and the poll adds its reply window (the
//    slowest reply, or the full timeout when the channel can lose one);
//  * Aggregation rounds are synchronized — detail::run_exchange_round
//    charges each round its slowest push-pull exchange.

#include <string>

#include "p2pse/support/rng.hpp"

namespace p2pse::sim {

/// A distribution of one-way per-hop message latencies (milliseconds or any
/// consistent unit).
class LatencyModel {
 public:
  /// Every hop takes exactly `hop` units.
  [[nodiscard]] static LatencyModel constant(double hop);
  /// Hop latency uniform in [lo, hi).
  [[nodiscard]] static LatencyModel uniform(double lo, double hi);
  /// Hop latency exponential with the given mean (heavy-ish tail).
  [[nodiscard]] static LatencyModel exponential(double mean);
  /// Hop latency lognormal: exp(Normal(mu, sigma)) — the RTT shape wide-area
  /// measurement studies report. mu is the log-scale location, sigma >= 0.
  [[nodiscard]] static LatencyModel lognormal(double mu, double sigma);
  /// Hop latency Pareto with scale xm > 0, shape alpha > 0 (power-law tail;
  /// alpha <= 1 has infinite mean — legal, but mean() reports +inf).
  [[nodiscard]] static LatencyModel pareto(double xm, double alpha);

  /// Draws one hop latency.
  [[nodiscard]] double sample(support::RngStream& rng) const;

  /// Mean per-hop latency.
  [[nodiscard]] double mean() const noexcept;

  /// Spec-grammar round-trip form: "constant:5", "uniform:2:8", "exp:50",
  /// "lognormal:3:0.8", "pareto:2:2.5" (the `latency=` value accepted by
  /// sim::NetworkConfig::parse).
  [[nodiscard]] std::string describe() const;

 private:
  enum class Kind { kConstant, kUniform, kExponential, kLognormal, kPareto };
  LatencyModel(Kind kind, double a, double b) : kind_(kind), a_(a), b_(b) {}
  Kind kind_;
  double a_;
  double b_;
};

}  // namespace p2pse::sim
