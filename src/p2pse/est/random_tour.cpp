#include "p2pse/est/random_tour.hpp"

#include "p2pse/est/walk.hpp"

namespace p2pse::est {

std::string RandomTour::describe() const {
  return "max_steps=" + std::to_string(config_.max_steps);
}

Estimate RandomTour::estimate_point(sim::Simulator& sim, net::NodeId initiator,
                                    support::RngStream& rng) {
  const std::uint64_t baseline = sim.meter().total();
  const net::Graph& graph = sim.graph();
  const std::size_t init_degree = graph.degree(initiator);
  if (!graph.is_alive(initiator) || init_degree == 0) {
    return Estimate::invalid_at(sim.now());
  }

  // Phi accumulates 1/deg over X_0 = initiator .. X_{T-1}; the arrival back
  // at the initiator ends the tour and is not accumulated.
  //
  // Lossy links: the tour message carries phi — irreplaceable in-flight
  // state, and a tour is far too long to restart on every loss. The
  // standard adaptation (cf. the master/slave RandomTour variant in
  // PAPERS.md) is per-hop acknowledgement with retransmission, so every hop
  // uses the channel's hop-reliable send: loss inflates message cost and
  // wall-clock delay but never kills the tour.
  double phi = 1.0 / static_cast<double>(init_degree);
  const WalkSample tour = walk<HopDelivery::kReliable>(
      sim, initiator, config_.max_steps, rng, [&](net::NodeId at) {
        if (at == initiator) return true;
        phi += 1.0 / static_cast<double>(graph.degree(at));
        return false;
      });
  if (tour.node != initiator) {
    // Hit the step bound, or trapped on an isolated survivor (possible only
    // under churn mid-tour; impossible on a static undirected graph).
    return Estimate::invalid_at(sim.now(), sim.meter().since(baseline));
  }
  sim.record_walk_hops(tour.steps);
  Estimate estimate;
  estimate.value = static_cast<double>(init_degree) * phi;
  estimate.time = sim.now();
  estimate.messages = sim.meter().since(baseline);
  estimate.delay = tour.elapsed;
  return estimate;
}

}  // namespace p2pse::est
