// The paper's very first motivating use case (§I): "the constant degree of
// the Viceroy network [12] requires this information to choose a level for
// an incoming peer". Viceroy assigns each joining peer a level drawn
// uniformly from {1..round(log N)} — using an ESTIMATE of N, since no peer
// knows the true size.
//
// This example joins a stream of peers, each estimating N with a cheap
// Sample&Collide run and drawing its level from the estimate, then compares
// the resulting level distribution against the ideal one computed from the
// true N. The match demonstrates that decentralized estimates are accurate
// enough to parameterize structured overlays.
//
//   ./viceroy_levels [--nodes 20000] [--joins 500] [--l 50] [--seed 11]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/churn.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/support/stats.hpp"

namespace {

constexpr p2pse::support::Flag kFlags[] = {
    {"nodes", "N", "initial overlay size (default 20000)"},
    {"joins", "J", "peers to join (default 500)"},
    {"l", "L", "Sample&Collide collision target (default 50)"},
    {"seed", "S", "root seed (default 11)"},
};

int run(const p2pse::support::Args& args) {
  using namespace p2pse;
  if (support::handle_flags(
          args, "choose Viceroy levels from size estimates", {kFlags})) {
    return 0;
  }
  const std::size_t nodes = args.get_uint("nodes", 20000);
  const std::size_t joins = args.get_uint("joins", 500);
  const std::uint32_t l = args.get_uint("l", std::uint32_t{50});
  const std::uint64_t seed = args.get_uint("seed", 11);

  const support::RngStream root(seed);
  support::RngStream graph_rng = root.split("graph");
  sim::Simulator sim(net::build_heterogeneous_random({nodes, 1, 10}, graph_rng),
                     seed);
  est::SampleCollide sc({.timer = 10.0, .collisions = l});
  support::RngStream est_rng = root.split("estimator");
  support::RngStream join_rng = root.split("join");
  support::RngStream level_rng = root.split("level");

  support::RunningStats estimate_error;
  std::vector<std::uint64_t> chosen_levels;   // from estimates
  std::vector<std::uint64_t> ideal_levels;    // from the true N
  std::uint64_t max_level = 0;

  for (std::size_t j = 0; j < joins; ++j) {
    // The joining peer enters the overlay, then estimates N from inside.
    const net::NodeId joiner = net::join_node(sim.graph(), {1, 10}, join_rng);
    const est::Estimate e = sc.estimate_point(sim, joiner, est_rng);
    if (!e.valid) continue;
    const double truth = static_cast<double>(sim.graph().size());
    estimate_error.add(100.0 * std::abs(e.value - truth) / truth);

    const auto levels_est =
        static_cast<std::int64_t>(std::max(1.0, std::round(std::log2(e.value))));
    const auto levels_true =
        static_cast<std::int64_t>(std::max(1.0, std::round(std::log2(truth))));
    const auto level =
        static_cast<std::uint64_t>(level_rng.uniform_int(1, levels_est));
    const auto ideal =
        static_cast<std::uint64_t>(level_rng.uniform_int(1, levels_true));
    chosen_levels.push_back(level);
    ideal_levels.push_back(ideal);
    max_level = std::max({max_level, level, ideal});
  }

  std::printf("joined %zu peers into an overlay growing from %zu nodes\n",
              joins, nodes);
  std::printf("per-join size-estimate error: mean %.2f%% (l=%u)\n\n",
              estimate_error.mean(), l);
  std::printf("Viceroy level histogram (levels 1..round(log2 N)):\n");
  std::printf("%6s %18s %18s\n", "level", "from estimate", "from true N");
  for (std::uint64_t level = 1; level <= max_level; ++level) {
    const auto count = [&](const std::vector<std::uint64_t>& v) {
      std::size_t c = 0;
      for (const std::uint64_t x : v) c += (x == level);
      return c;
    };
    std::printf("%6llu %18zu %18zu\n",
                static_cast<unsigned long long>(level), count(chosen_levels),
                count(ideal_levels));
  }
  std::printf(
      "\nThe two histograms agree because round(log2 N-hat) == round(log2 N)\n"
      "whenever the estimate is within a few percent — exactly what the\n"
      "estimators deliver. Viceroy can be parameterized decentralizedly.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return p2pse::support::run_main(argc, argv, run);
}
