#include "p2pse/est/sample_collide.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "p2pse/support/check.hpp"
#include "p2pse/support/csv.hpp"

namespace p2pse::est {

SampleCollide::SampleCollide(SampleCollideConfig config)
    : Estimator(kInfo), config_(config) {
  if (config_.timer <= 0.0) {
    throw std::invalid_argument("SampleCollide: timer T must be > 0");
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
  WalkSample out;
  const net::Graph& graph = sim.graph();
  net::NodeId current = initiator;
  double timer = config_.timer;

  // The initiator launches the walk toward a random neighbor; the timer is
  // decremented at each *receiving* node. An isolated node keeps the message
  // and samples itself.
  for (std::uint64_t step = 0; step < config_.max_walk_steps; ++step) {
    const net::NodeId next = graph.random_neighbor(current, rng);
    if (next == net::kInvalidNode) break;  // stuck: no neighbors to walk to
    const sim::Channel::Delivery hop =
        sim.send_arq(sim::MessageClass::kWalkStep, current, next);
    out.elapsed += hop.latency;
    if (!hop.delivered) {
      // Per-hop ARQ exhausted: the walk (and its timer state) is gone.
      out.lost = true;
      return out;
    }
    ++out.steps;
    current = next;
    const std::size_t deg = graph.degree(current);
    timer -= rng.exponential(1.0) / static_cast<double>(deg);
    if (timer <= 0.0) break;
  }
  out.node = current;
  // The sampled node reports back to the initiator — one reply message. When
  // the walk never left the initiator (isolated node: zero steps), the
  // initiator sampled itself locally and no message crosses the network.
  if (out.steps > 0) {
    sim.record_walk_hops(out.steps);
    const sim::Channel::Delivery reply =
        sim.send_arq(sim::MessageClass::kSampleReply, out.node, initiator);
    out.elapsed += reply.latency;
    if (!reply.delivered) out.lost = true;
  }
  return out;
}

Estimate SampleCollide::estimate_once(sim::Simulator& sim,
                                      net::NodeId initiator,
                                      support::RngStream& rng) const {
  const std::uint64_t baseline = sim.meter().total();
  if (!sim.graph().is_alive(initiator)) {
    return Estimate::invalid_at(sim.now());
  }

  std::unordered_set<net::NodeId> seen;
  seen.reserve(1024);
  std::uint64_t samples = 0;
  std::uint64_t attempts = 0;
  std::uint32_t collisions = 0;
  double delay = 0.0;
  while (collisions < config_.collisions && attempts < config_.max_samples) {
    const WalkSample s = sample(sim, initiator, rng);
    ++attempts;
    if (s.lost) {
      // Initiator timeout on a lost walk or reply: wait, then relaunch.
      // The messages already on the wire stay counted; the sample does not
      // exist, so it enters neither the collision set nor C. The charge is
      // the INITIATOR's clock, not the network's: remote per-hop ARQ waits
      // (s.elapsed) happen out of its sight and off its critical path — it
      // relaunches the moment its own timer fires.
      delay += sim.channel().config().timeout;
      continue;
    }
    delay += s.elapsed;
    ++samples;
    if (!seen.insert(s.node).second) ++collisions;
  }
  // Every delivered sample is either a new id or a collision, and lost
  // attempts enter neither count.
  P2PSE_CHECK(samples == seen.size() + collisions);
  P2PSE_CHECK(samples <= attempts);

  Estimate estimate;
  estimate.time = sim.now();
  estimate.messages = sim.meter().since(baseline);
  estimate.delay = delay;
  if (collisions < config_.collisions) {
    estimate.valid = false;  // hit the safety bound (graph too large for l)
    return estimate;
  }
  switch (config_.estimator) {
    case CollisionEstimator::kQuadratic:
      estimate.value = static_cast<double>(samples) *
                       static_cast<double>(samples) /
                       (2.0 * static_cast<double>(config_.collisions));
      break;
    case CollisionEstimator::kMaximumLikelihood:
      estimate.value = solve_mle(seen.size(), config_.collisions);
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
