// Head-to-head mini-study at a user-chosen scale — a configurable version of
// the paper's Table I plus a dynamic-scenario comparison, for picking the
// right algorithm for a given deployment (the paper's stated purpose: "help
// application developers to choose the best strategy for a given
// setting/cost/accuracy").
//
//   ./compare_algorithms [--nodes 20000] [--runs 10] [--seed 5]
//                        [--scenario static|growing|shrinking|catastrophic]
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/estimator.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/est/smoothing.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/support/stats.hpp"

int main(int argc, char** argv) {
  using namespace p2pse;
  const support::Args args(argc, argv);
  if (args.help_requested()) {
    std::printf(
        "usage: %s [--nodes N] [--runs R] [--seed S]\n"
        "          [--scenario static|growing|shrinking|catastrophic]\n",
        argv[0]);
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

  {
    auto sc = std::make_shared<est::SampleCollide>(
        est::SampleCollideConfig{.timer = 10.0, .collisions = 200});
    report("Sample&Collide l=200 oneShot",
           runner.run_point(
               [sc](sim::Simulator& s, net::NodeId i, support::RngStream& r) {
                 return sc->estimate_once(s, i, r);
               },
               {.estimations = runs}));
  }
  {
    auto sc = std::make_shared<est::SampleCollide>(
        est::SampleCollideConfig{.timer = 10.0, .collisions = 10});
    report("Sample&Collide l=10 oneShot",
           runner.run_point(
               [sc](sim::Simulator& s, net::NodeId i, support::RngStream& r) {
                 return sc->estimate_once(s, i, r);
               },
               {.estimations = runs}));
  }
  {
    auto hs = std::make_shared<est::HopsSampling>(est::HopsSamplingConfig{});
    auto smoother = std::make_shared<est::LastKAverage>(10);
    report("HopsSampling last10runs",
           runner.run_point(
               [hs, smoother](sim::Simulator& s, net::NodeId i,
                              support::RngStream& r) {
                 est::Estimate e = hs->run_once(s, i, r).estimate;
                 if (e.valid) e.value = smoother->add(e.value);
                 return e;
               },
               {.estimations = runs}));
  }
  {
    // Aggregation runs epochs continuously over the same timeline, driven
    // through the unified estimator interface.
    const est::AggregationEstimator agg({.rounds_per_epoch = 50});
    report("Aggregation (50-round epochs)",
           runner.run(agg, {.estimations = 0, .rounds_per_unit = 1.0}));
  }

  std::printf(
      "\nInterpretation guide (paper §V): Aggregation for the most stringent\n"
      "accuracy needs; Sample&Collide for tunable cost/accuracy and the best\n"
      "behaviour under churn; HopsSampling when per-estimate cheapness\n"
      "matters more than bias.\n");
  return 0;
}
