#include "p2pse/est/sample_collide.hpp"

#include <cmath>
#include <stdexcept>

#include "p2pse/support/csv.hpp"

namespace p2pse::est {

SampleCollide::SampleCollide(SampleCollideConfig config)
    : Estimator(kInfo), config_(config) {
  if (!std::isfinite(config_.timer) || config_.timer <= 0.0) {
    std::string message = "SampleCollide: timer T must be finite and > 0, got ";
    message.append(support::format_double(config_.timer));
    throw std::invalid_argument(message);
  }
  if (config_.collisions == 0) {
    throw std::invalid_argument("SampleCollide: collision target l must be >= 1");
  }
}

std::string SampleCollide::describe() const {
  std::string out = "l=" + std::to_string(config_.collisions) +
                    " T=" + support::format_double(config_.timer);
  if (config_.estimator == CollisionEstimator::kMaximumLikelihood) {
    out += " estimator=mle";
  }
  return out;
}

WalkSample SampleCollide::sample(sim::Simulator& sim, net::NodeId initiator,
                                 support::RngStream& rng) const {
  // The timer is decremented at each *receiving* node.
  const net::Graph& graph = sim.graph();
  double timer = config_.timer;
  return walk_to_sample<HopDelivery::kArq>(
      sim, initiator, config_.max_walk_steps, rng, [&](net::NodeId at) {
        timer -= rng.exponential(1.0) / static_cast<double>(graph.degree(at));
        return timer <= 0.0;
      });
}

Estimate SampleCollide::estimate_point(sim::Simulator& sim,
                                       net::NodeId initiator,
                                       support::RngStream& rng) {
  if (!sim.graph().is_alive(initiator)) {
    return Estimate::invalid_at(sim.now());
  }
  const CollisionRun run =
      collide(sim, config_.collisions, config_.max_samples,
              [&] { return sample(sim, initiator, rng); });
  return estimate_from(run, sim.now());
}

Estimate SampleCollide::estimate_from(const CollisionRun& run,
                                      sim::Time now) const {
  Estimate estimate = run.estimate(now);
  if (!estimate.valid) return estimate;  // graph too large for l
  switch (config_.estimator) {
    case CollisionEstimator::kQuadratic:
      estimate.value = birthday_estimate(run.samples, config_.collisions);
      break;
    case CollisionEstimator::kMaximumLikelihood:
      estimate.value = solve_mle(run.distinct, config_.collisions);
      break;
  }
  return estimate;
}

double SampleCollide::solve_mle(std::uint64_t distinct,
                                std::uint64_t collisions) {
  if (collisions == 0 || distinct == 0) return 0.0;
  const double d_total = static_cast<double>(distinct);
  const double l = static_cast<double>(collisions);
  // f(N) = sum_{d=0}^{D-1} d/(N-d) - l, strictly decreasing for N > D-1.
  const auto f = [&](double n) {
    double acc = 0.0;
    for (std::uint64_t d = 1; d < distinct; ++d) {
      acc += static_cast<double>(d) / (n - static_cast<double>(d));
    }
    return acc - l;
  };
  double lo = d_total;  // f(D) -> +inf as N -> (D-1)+ ... f(D) >= D-1 - l
  double hi = std::max(4.0 * d_total, d_total * d_total / (2.0 * l) * 8.0 + 16.0);
  // Expand hi until the sign flips (f(hi) < 0).
  while (f(hi) > 0.0) {
    hi *= 2.0;
    if (hi > 1e18) return hi;  // numerically degenerate; give the bound
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= 1e-6 * hi) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace p2pse::est
