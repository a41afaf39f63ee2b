// Continuous size monitoring of a churning overlay — the paper's dynamic
// setting (§IV-D) as an application: a monitoring process runs perpetual
// Sample&Collide estimations while nodes join and leave, and prints how the
// estimate tracks the true size.
//
//   ./monitor_churn --scenario growing --l 50   (--help: flags)
#include <cstdio>
#include <string>

#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/support/ascii_plot.hpp"

namespace {

constexpr p2pse::support::Flag kFlags[] = {
    {"nodes", "N", "initial overlay size (default 20000)"},
    {"scenario", "NAME", "a scripted scenario (default shrinking)"},
    {"estimations", "E", "estimations over the run (default 40)"},
    {"l", "L", "Sample&Collide collision target (default 100)"},
    {"seed", "S", "root seed (default 7)"},
};

int run(const p2pse::support::Args& args) {
  using namespace p2pse;
  if (support::handle_flags(
          args, "track a churning overlay with Sample&Collide", {kFlags})) {
    return 0;
  }
  const std::size_t nodes = args.get_uint("nodes", 20000);
  const std::size_t estimations = args.get_uint("estimations", 40);
  const std::uint32_t l = args.get_uint("l", std::uint32_t{100});
  const std::uint64_t seed = args.get_uint("seed", 7);
  const std::string kind = args.get_string("scenario", "shrinking");

  const scenario::ScenarioScript script = scenario::script_by_name(kind, nodes);

  const scenario::ScenarioRunner runner(
      script,
      [nodes](support::RngStream& rng) {
        return net::build_heterogeneous_random({nodes, 1, 10}, rng);
      },
      seed);
  const scenario::Series series =
      runner.run(est::SampleCollide({.timer = 10.0, .collisions = l}),
                 {.estimations = estimations});

  std::printf("monitoring a %s overlay of initially %zu nodes "
              "(Sample&Collide, l=%u)\n\n", kind.c_str(), nodes, l);
  std::printf("%8s %12s %12s %9s %12s\n", "time", "true size", "estimate",
              "error", "messages");
  support::Series truth{"true size", {}, {}, '.'};
  support::Series estimate{"estimate", {}, {}, '*'};
  for (const auto& p : series) {
    std::printf("%8.0f %12.0f %12.0f %8.2f%% %12llu\n", p.time, p.truth,
                p.estimate,
                p.truth > 0 ? 100.0 * (p.estimate - p.truth) / p.truth : 0.0,
                static_cast<unsigned long long>(p.messages));
    truth.x.push_back(p.time);
    truth.y.push_back(p.truth);
    estimate.x.push_back(p.time);
    estimate.y.push_back(p.estimate);
  }
  support::PlotOptions plot;
  plot.title = "\nestimate vs true size";
  plot.x_label = "time";
  plot.y_label = "size";
  std::printf("%s", support::render_plot({truth, estimate}, plot).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return p2pse::support::run_main(argc, argv, run);
}
