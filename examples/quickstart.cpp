// Quickstart: build an unstructured overlay, run the three size-estimation
// algorithms once each, and compare their answers and costs.
//
//   ./quickstart [--nodes 10000] [--seed 1]
#include <cstdio>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/args.hpp"

namespace {

constexpr p2pse::support::Flag kFlags[] = {
    {"nodes", "N", "overlay size (default 10000)"},
    {"seed", "S", "root seed (default 1)"},
};

int run(const p2pse::support::Args& args) {
  using namespace p2pse;
  if (support::handle_flags(
          args, "one estimate by each algorithm, compared", {kFlags})) {
    return 0;
  }
  const std::size_t nodes = args.get_uint("nodes", 10000);
  const std::uint64_t seed = args.get_uint("seed", 1);

  // 1. Build the overlay: the paper's heterogeneous random graph
  //    (each node has 1..10 random neighbors, bidirectional links).
  const support::RngStream root(seed);
  support::RngStream graph_rng = root.split("graph");
  sim::Simulator sim(net::build_heterogeneous_random({nodes, 1, 10}, graph_rng),
                     seed);
  std::printf("overlay: %zu nodes, %zu links, avg degree %.2f\n\n",
              sim.graph().size(), sim.graph().edge_count(),
              sim.graph().average_degree());

  support::RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);

  std::printf("%-28s %12s %12s %10s\n", "algorithm", "estimate", "messages",
              "error");
  const auto show = [&](const char* name, const est::Estimate& e) {
    std::printf("%-28s %12.0f %12llu %9.2f%%\n", name, e.value,
                static_cast<unsigned long long>(e.messages),
                100.0 * (e.value - static_cast<double>(nodes)) /
                    static_cast<double>(nodes));
  };

  // 2. Sample&Collide: random-walk sampling + inverted birthday paradox.
  {
    est::SampleCollide sc({.timer = 10.0, .collisions = 200});
    support::RngStream rng = root.split("sc");
    show("Sample&Collide (T=10,l=200)", sc.estimate(sim, initiator, rng));
  }
  // 3. HopsSampling: gossip poll + distance-weighted probabilistic replies.
  {
    const est::HopsSampling hs({});
    support::RngStream rng = root.split("hs");
    show("HopsSampling (mHR=5)", hs.run_once(sim, initiator, rng).estimate);
  }
  // 4. Gossip Aggregation: push-pull averaging of an indicator value.
  {
    est::Aggregation agg({.rounds_per_epoch = 50});
    support::RngStream rng = root.split("agg");
    show("Aggregation (50 rounds)", agg.estimate(sim, initiator, rng));
  }
  std::printf(
      "\nAs in the paper: Aggregation is near-exact but costs ~2*N*rounds;\n"
      "Sample&Collide trades accuracy for cost via l; HopsSampling is the\n"
      "cheapest but under-estimates.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return p2pse::support::run_main(argc, argv, run);
}
