#include "p2pse/est/delay.hpp"

namespace p2pse::est {

DelayBreakdown sample_collide_delay(sim::Simulator& sim,
                                    const SampleCollide& sc,
                                    net::NodeId initiator,
                                    const DelayConfig& config,
                                    support::RngStream& rng) {
  DelayBreakdown out;
  // The estimator's own collision loop, observing each walk's hop count
  // (estimate_once hides it).
  const CollisionRun run =
      collide(sim, sc.config().collisions, sc.config().max_samples, [&] {
        const WalkSample ws = sc.sample(sim, initiator, rng);
        // Walk hops are sequential; the sample's report is one more hop.
        out.total += config.hop_latency.sequential(ws.steps + 1, rng);
        return ws;
      });
  const Estimate estimate = sc.estimate_from(run, sim.now());
  out.messages = estimate.messages;
  out.estimate = estimate.value;
  return out;
}

DelayBreakdown hops_sampling_delay(sim::Simulator& sim, const HopsSampling& hs,
                                   net::NodeId initiator,
                                   const DelayConfig& config,
                                   support::RngStream& rng) {
  DelayBreakdown out;
  const HopsSamplingResult result = hs.run_once(sim, initiator, rng);
  // The spread advances one hop per "round" of parallel transmissions; its
  // depth bounds the wall-clock. Replies come straight back: one hop.
  out.total = config.hop_latency.mean() *
              (static_cast<double>(result.spread_rounds) + 1.0);
  out.messages = result.estimate.messages;
  out.estimate = result.estimate.value;
  return out;
}

DelayBreakdown aggregation_delay(sim::Simulator& sim, Aggregation& agg,
                                 net::NodeId initiator,
                                 const DelayConfig& config,
                                 support::RngStream& rng) {
  DelayBreakdown out;
  const std::uint64_t baseline = sim.meter().total();
  const Estimate e = agg.run_epoch(sim, initiator, rng);
  out.total = config.hop_latency.mean() * config.aggregation_period_hops *
              static_cast<double>(agg.config().rounds_per_epoch);
  out.messages = sim.meter().since(baseline);
  out.estimate = e.value;
  return out;
}

}  // namespace p2pse::est
