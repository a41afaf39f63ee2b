// scenario::Replica reports a replica's counters to the telemetry sink once,
// and only for a run that completed.
#include "p2pse/scenario/replica.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "p2pse/net/builders.hpp"
#include "p2pse/obs/telemetry.hpp"

namespace p2pse::scenario {
namespace {

GraphFactory factory(std::size_t nodes) {
  return [nodes](support::RngStream& rng) {
    return net::build_heterogeneous_random({nodes, 1, 10}, rng);
  };
}

TEST(Replica, CompletedRunIsSnapshottedOnce) {
  obs::RunTelemetry telemetry;
  RunOptions options;
  options.telemetry = &telemetry;
  {
    Replica replica(options, factory(200), support::RngStream(7), 1, 2);
    EXPECT_EQ(replica.sim().graph().size(), 200u);
    EXPECT_NE(replica.sim().recorder(), nullptr);
    EXPECT_EQ(telemetry.sim().replicas, 0u);
  }
  EXPECT_EQ(telemetry.sim().replicas, 1u);
  EXPECT_EQ(telemetry.sim().graph_joins, 200u);
}

TEST(Replica, AbandonedRunReportsNothing) {
  obs::RunTelemetry telemetry;
  RunOptions options;
  options.telemetry = &telemetry;
  EXPECT_THROW(
      {
        const Replica replica(options, factory(200), support::RngStream(7));
        throw std::runtime_error("estimator failed");
      },
      std::runtime_error);
  EXPECT_EQ(telemetry.sim().replicas, 0u);
}

}  // namespace
}  // namespace p2pse::scenario
