// Head-to-head mini-study at a user-chosen scale — a configurable version of
// the paper's Table I plus a dynamic-scenario comparison, for picking the
// right algorithm for a given deployment (the paper's stated purpose: "help
// application developers to choose the best strategy for a given
// setting/cost/accuracy").
//
//   ./compare_algorithms --scenario shrinking --runs 20   (--help: flags)
#include <cmath>
#include <cstdio>
#include <string>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/support/stats.hpp"

namespace {

constexpr p2pse::support::Flag kFlags[] = {
    {"nodes", "N", "initial overlay size (default 20000)"},
    {"runs", "R", "estimations per algorithm (default 10)"},
    {"seed", "S", "root seed (default 5)"},
    {"scenario", "NAME",
     "static|growing|shrinking|catastrophic (default static)"},
};

int run(const p2pse::support::Args& args) {
  using namespace p2pse;
  if (support::handle_flags(
          args, "the three algorithms head to head", {kFlags})) {
    return 0;
  }
  const std::size_t nodes = args.get_uint("nodes", 20000);
  const std::size_t runs = args.get_uint("runs", 10);
  const std::uint64_t seed = args.get_uint("seed", 5);
  const std::string kind = args.get_string("scenario", "static");

  const scenario::ScenarioScript script =
      scenario::script_by_name(kind, nodes);

  const scenario::ScenarioRunner runner(
      script,
      [nodes](support::RngStream& rng) {
        return net::build_heterogeneous_random({nodes, 1, 10}, rng);
      },
      seed);

  std::printf("scenario=%s nodes=%zu runs-per-algorithm=%zu seed=%llu\n\n",
              kind.c_str(), nodes, runs,
              static_cast<unsigned long long>(seed));
  std::printf("%-30s %12s %12s %14s\n", "algorithm", "mean err%", "worst err%",
              "msgs/estimate");

  const auto report = [&](const char* name, const scenario::Series& series) {
    support::RunningStats err, msgs;
    for (const auto& p : series) {
      if (!p.valid || p.truth <= 0) continue;
      err.add(100.0 * std::abs(p.estimate - p.truth) / p.truth);
      msgs.add(static_cast<double>(p.messages));
    }
    std::printf("%-30s %11.2f%% %11.2f%% %14.0f\n", name, err.mean(), err.max(),
                msgs.mean());
  };

  report("Sample&Collide l=200 oneShot",
         runner.run(est::SampleCollide({.timer = 10.0, .collisions = 200}),
                    {.estimations = runs}));
  report("Sample&Collide l=10 oneShot",
         runner.run(est::SampleCollide({.timer = 10.0, .collisions = 10}),
                    {.estimations = runs}));
  report("HopsSampling last10runs",
         runner.run(est::HopsSampling({.last_k = 10}), {.estimations = runs}));
  // Aggregation runs epochs continuously over the same timeline.
  report("Aggregation (50-round epochs)",
         runner.run(est::Aggregation({.rounds_per_epoch = 50}),
                    {.estimations = 0, .rounds_per_unit = 1.0}));

  std::printf(
      "\nInterpretation guide (paper §V): Aggregation for the most stringent\n"
      "accuracy needs; Sample&Collide for tunable cost/accuracy and the best\n"
      "behaviour under churn; HopsSampling when per-estimate cheapness\n"
      "matters more than bias.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return p2pse::support::run_main(argc, argv, run);
}
