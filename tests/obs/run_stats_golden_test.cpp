// The versioned `sim` stats section is a determinism contract: a pure
// function of (figure, parameters, seed), byte-identical at any --threads
// value. This suite pins fig01's section at reduced scale to a golden
// literal and checks the thread-invariance directly, plus the overarching
// guarantee that attaching telemetry never perturbs the stdout report.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "p2pse/harness/figures.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/obs/telemetry.hpp"

namespace p2pse::harness {
namespace {

FigureParams reduced_fig01_params() {
  FigureParams p = find_figure("fig01")->defaults;
  p.nodes = 1200;
  p.estimations = 6;
  p.replicas = 2;
  p.seed = 42;
  p.threads = 2;
  return p;
}

std::string sim_json(const FigureParams& base, std::size_t threads) {
  FigureParams p = base;
  p.threads = threads;
  obs::RunTelemetry telemetry;
  p.telemetry = &telemetry;
  const FigureReport report = run_figure("fig01", p);
  return obs::sim_section(report.id, report.params, telemetry.sim());
}

// ./fig01_sc_static_100k --nodes 1200 --estimations 6 --replicas 2 --seed 42
//                        --threads 2 --stats-json ...   (the `sim` object,
//                        schema version 3)
const char kGoldenFig01Sim[] =
    "{\"figure\":\"fig_sc_static\",\"params\":\"nodes=1200 l=200 T=10 estimations=6 replicas=2 seed=42\","
    "\"replicas\":2,"
    "\"channel\":{\"sends_iid\":683320,\"sends_link\":0,\"drops\":0,"
    "\"retransmits\":0,\"arq_timeouts\":0},\"graph\":{\"joins\":2400,\"leaves\":0,"
    "\"chunk_recycles\":463},\"messages\":{\"walk_step\":674129,\"sample_reply\":9191,"
    "\"gossip_spread\":0,\"poll_reply\":0,\"aggregation_push\":0,\"aggregation_pull\":0,"
    "\"control\":0,\"total\":683320},\"bytes\":{\"walk_step\":29661676,\"sample_reply\":367640,"
    "\"gossip_spread\":0,\"poll_reply\":0,\"aggregation_push\":0,\"aggregation_pull\":0,"
    "\"control\":0,\"total\":30029316},\"load\":{\"max_node_messages\":11204,"
    "\"max_node_bytes\":474640},\"distributions\":{\"delay\":{\"walk_step\":{\"bounds\":[0,"
    "1,5,10,25,50,100,250,500,1000,2500],\"buckets\":[674129,0,0,0,0,0,"
    "0,0,0,0,0,0],\"count\":674129},\"sample_reply\":{\"bounds\":[0,1,5,10,"
    "25,50,100,250,500,1000,2500],\"buckets\":[9191,0,0,0,0,0,0,0,0,0,0,"
    "0],\"count\":9191},\"gossip_spread\":{\"bounds\":[0,1,5,10,25,50,100,250,"
    "500,1000,2500],\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,0],\"count\":0},\"poll_reply\":{\"bounds\":[0,"
    "1,5,10,25,50,100,250,500,1000,2500],\"buckets\":[0,0,0,0,0,0,0,0,0,"
    "0,0,0],\"count\":0},\"aggregation_push\":{\"bounds\":[0,1,5,10,25,50,100,"
    "250,500,1000,2500],\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,0],\"count\":0},"
    "\"aggregation_pull\":{\"bounds\":[0,1,5,10,25,50,100,250,500,1000,2500],"
    "\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,0],\"count\":0},\"control\":{\"bounds\":[0,"
    "1,5,10,25,50,100,250,500,1000,2500],\"buckets\":[0,0,0,0,0,0,0,0,0,"
    "0,0,0],\"count\":0}},\"walk_hops\":{\"bounds\":[1,2,5,10,20,50,100,200,"
    "500,1000],\"buckets\":[0,0,0,0,0,133,9019,39,0,0,0],\"count\":9191},"
    "\"node_messages\":{\"bounds\":[0,1,10,100,1000,10000,1e+05,1e+06],\"buckets\":[0,"
    "0,0,19,2333,46,2,0,0],\"count\":2400},\"node_bytes\":{\"bounds\":[0,1024,"
    "10240,102400,1048576,10485760,104857600,1073741824],\"buckets\":[0,"
    "0,171,2217,12,0,0,0,0],\"count\":2400},\"degree\":{\"bounds\":[0,1,2,4,"
    "8,16,32,64,128,256],\"buckets\":[0,19,61,353,1020,947,0,0,0,0,0],\"count\":2400}}}";

TEST(RunStats, Fig01SimSectionMatchesGoldenByteForByte) {
  EXPECT_EQ(sim_json(reduced_fig01_params(), 2), kGoldenFig01Sim);
}

TEST(RunStats, SimSectionIsByteIdenticalAcrossThreadCounts) {
  const FigureParams base = reduced_fig01_params();
  const std::string one = sim_json(base, 1);
  EXPECT_EQ(one, sim_json(base, 2));
  EXPECT_EQ(one, sim_json(base, 8));
  EXPECT_EQ(one, kGoldenFig01Sim);
}

TEST(RunStats, AttachedTelemetryLeavesTheReportByteIdentical) {
  FigureParams plain = reduced_fig01_params();
  const FigureReport without = run_figure("fig01", plain);

  FigureParams instrumented = reduced_fig01_params();
  obs::RunTelemetry telemetry;
  instrumented.telemetry = &telemetry;
  const FigureReport with = run_figure("fig01", instrumented);

  std::ostringstream a;
  std::ostringstream b;
  print_report(a, without);
  print_report(b, with);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(telemetry.sim().replicas, 2u);
  EXPECT_GT(telemetry.trace().size(), 0u);  // spans were recorded
}

}  // namespace
}  // namespace p2pse::harness
