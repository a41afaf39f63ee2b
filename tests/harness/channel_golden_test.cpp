// Loss-free regression lock: an explicit all-ideal `net:` spec must route
// every message through sim::Channel and still reproduce the pre-channel
// reports byte-for-byte — at the figure level (fig01/fig05, the same rows
// golden_report_test pins against the seed implementation) and at the
// cursor level (ScenarioRunner trajectories with and without an installed
// channel). Plus the driver-facing `net:` spec hardening.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/harness/figures.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"

namespace p2pse::harness {
namespace {

std::string render(const FigureReport& report) {
  std::ostringstream out;
  print_report(out, report);
  return out.str();
}

FigureParams small_params(std::string_view figure) {
  FigureParams params = find_figure(figure)->defaults;
  params.nodes = 800;
  params.estimations = 8;
  params.replicas = 2;
  params.seed = 7;
  params.threads = 2;
  return params;
}

TEST(ChannelGolden, Fig01IdenticalThroughAnExplicitIdealChannel) {
  const FigureParams bare = small_params("fig01");
  FigureParams routed = bare;
  routed.net = "net:loss=0,latency=constant:0";
  EXPECT_EQ(render(run_figure("fig01", routed)),
            render(run_figure("fig01", bare)));
}

TEST(ChannelGolden, Fig05IdenticalThroughAnExplicitIdealChannel) {
  const FigureParams bare = small_params("fig05");
  FigureParams routed = bare;
  routed.net = "net:loss=0,latency=constant:0";
  EXPECT_EQ(render(run_figure("fig05", routed)),
            render(run_figure("fig05", bare)));
}

TEST(ChannelGolden, MatrixIdenticalThroughAnExplicitIdealChannel) {
  MatrixOptions bare;
  bare.estimator = "random_tour";
  bare.scenario = "oscillating";
  bare.params.nodes = 500;
  bare.params.estimations = 5;
  bare.params.replicas = 2;
  bare.params.seed = 7;
  MatrixOptions routed = bare;
  routed.params.net = "net:loss=0,latency=constant:0";
  EXPECT_EQ(render(run_matrix(routed)), render(run_matrix(bare)));
}

// Cursor-level lock: the runner's per-replica trajectory (churn cursor,
// initiator redraws, estimator stream) must be identical whether the sim
// keeps its default channel or has an explicitly-ideal one installed.
TEST(ChannelGolden, RunnerPointTrajectoriesEqualWithIdealChannel) {
  const scenario::ScenarioRunner runner(
      scenario::script_by_name("catastrophic", 600),
      [](support::RngStream& rng) {
        return net::build_heterogeneous_random({600, 1, 10}, rng);
      },
      21);
  const est::SampleCollide proto({.timer = 4.0, .collisions = 20});
  const scenario::RunOptions bare{.estimations = 10};
  scenario::RunOptions routed = bare;
  routed.network = sim::NetworkConfig::parse("net:loss=0,latency=constant:0");
  const scenario::Series a = runner.run(proto, bare, 0);
  const scenario::Series b = runner.run(proto, routed, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_DOUBLE_EQ(a[i].truth, b[i].truth);
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate);
    EXPECT_EQ(a[i].valid, b[i].valid);
    EXPECT_EQ(a[i].messages, b[i].messages);
    EXPECT_DOUBLE_EQ(a[i].delay, b[i].delay);
  }
}

TEST(ChannelGolden, RunnerEpochTrajectoriesEqualWithIdealChannel) {
  const scenario::ScenarioRunner runner(
      scenario::script_by_name("shrinking", 400),
      [](support::RngStream& rng) {
        return net::build_heterogeneous_random({400, 1, 10}, rng);
      },
      21);
  const est::Aggregation proto({.rounds_per_epoch = 20});
  const scenario::RunOptions bare{.estimations = 0, .rounds_per_unit = 0.1};
  scenario::RunOptions routed = bare;
  routed.network = sim::NetworkConfig::parse("net:loss=0,latency=constant:0");
  const scenario::Series a = runner.run(proto, bare, 0);
  const scenario::Series b = runner.run(proto, routed, 0);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate);
    EXPECT_EQ(a[i].messages, b[i].messages);
  }
}

TEST(ChannelGolden, NonIdealChannelIsDeclaredInTheParamsLine) {
  MatrixOptions options;
  options.estimator = "random_tour";
  options.scenario = "static";
  options.params.nodes = 300;
  options.params.estimations = 3;
  options.params.replicas = 1;
  options.params.net = "net:loss=0.1,latency=exp:5";
  const FigureReport report = run_matrix(options);
  EXPECT_NE(report.params.find("net:loss=0.1,latency=exp:5"),
            std::string::npos);
  // An ideal spec must leave the params line untouched (byte-identity).
  options.params.net = "net:loss=0,latency=constant:0";
  EXPECT_EQ(run_matrix(options).params.find("net:"), std::string::npos);
}

// --- `net:` spec hardening at the harness surface ---------------------------

TEST(ChannelGolden, MalformedNetSpecIsAHardErrorInFigures) {
  FigureParams params = small_params("fig01");
  params.net = "net:loss=2";
  EXPECT_THROW((void)run_figure("fig01", params), std::invalid_argument);
  params.net = "net:latency=zipf:3";
  EXPECT_THROW((void)run_figure("fig01", params), std::invalid_argument);
}

TEST(ChannelGolden, MalformedNetSpecIsAHardErrorInTheMatrix) {
  MatrixOptions options;
  options.estimator = "random_tour";
  options.scenario = "static";
  options.params.nodes = 200;
  options.params.net = "net:timeout=0";
  EXPECT_THROW((void)run_matrix(options), std::invalid_argument);
  options.params.net = "net:drop=0.1";
  EXPECT_THROW((void)run_matrix(options), std::invalid_argument);
}

TEST(ChannelGolden, FiguresWithoutChannelRoutingRejectANonIdealNet) {
  // Generators that drive their own simulators without routing --net must
  // hard-error on a non-ideal spec rather than silently run the ideal
  // channel (the no-silent-fallback rule). An ideal spec stays accepted.
  for (const std::string_view figure :
       {"ablation_delay", "ablation_polling", "table1",
        "ext_loss_accuracy"}) {
    FigureParams params = find_figure(figure)->defaults;
    params.nodes = 200;
    params.estimations = 1;
    params.net = "net:loss=0.1";
    EXPECT_THROW((void)run_figure(figure, params), std::invalid_argument)
        << figure << " silently ignored --net";
  }
}

TEST(ChannelGolden, ChannellessEstimatorsRejectANonIdealNetInTheMatrix) {
  // interval_density reads local leafset state and never routes traffic
  // through the channel: the matrix/trace path must reject a non-ideal
  // --net for it rather than label loss-free numbers as lossy results.
  MatrixOptions options;
  options.estimator = "interval_density";
  options.scenario = "static";
  options.params.nodes = 200;
  options.params.estimations = 2;
  options.params.replicas = 1;
  options.params.net = "net:loss=0.05,latency=exp:5";
  EXPECT_THROW((void)run_matrix(options), std::invalid_argument);
  // The ideal spec (and no spec) keep working.
  options.params.net = "net:loss=0,latency=constant:0";
  EXPECT_NO_THROW((void)run_matrix(options));
}

TEST(ChannelGolden, LossSweepFiguresRunAtReducedScale) {
  FigureParams params = find_figure("ext_loss_accuracy")->defaults;
  params.nodes = 300;
  params.estimations = 2;
  params.threads = 2;
  const FigureReport report = run_figure("ext_loss_accuracy", params);
  // 5 candidates x 3 loss rates.
  EXPECT_EQ(report.table_rows.size(), 15u);
  const FigureReport delay = run_figure("ext_loss_delay", params);
  EXPECT_EQ(delay.table_rows.size(), 15u);
}

TEST(ChannelGolden, LossSweepFiguresAreThreadCountInvariant) {
  FigureParams params = find_figure("ext_loss_accuracy")->defaults;
  params.nodes = 300;
  params.estimations = 2;
  params.threads = 1;
  const std::string one = render(run_figure("ext_loss_accuracy", params));
  params.threads = 8;
  EXPECT_EQ(render(run_figure("ext_loss_accuracy", params)), one);
}

}  // namespace
}  // namespace p2pse::harness
