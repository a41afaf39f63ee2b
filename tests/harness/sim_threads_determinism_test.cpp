// Nested-parallelism determinism matrix: the report must be byte-identical
// at every (--threads x --sim-threads) combination. Replica fan-out and
// intra-replica sharding compose through support::sim_worker_budget; both
// levels split fixed substreams and merge in index order, so neither knob
// may leak into the bytes. Node counts sit above the parallel-attach
// threshold so the sharded topology embedding genuinely runs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "p2pse/harness/figures.hpp"
#include "p2pse/harness/report.hpp"

namespace p2pse::harness {
namespace {

std::string render(const FigureReport& report) {
  std::ostringstream out;
  print_report(out, report);
  return out.str();
}

FigureParams matrix_params() {
  FigureParams p;
  p.nodes = 5000;  // above topo::attach's 4096 parallel threshold
  p.seed = 42;
  p.estimations = 4;
  p.replicas = 2;
  p.sc_collisions = 20;
  p.agg_rounds = 15;
  p.last_k = 3;
  // A non-flat topology makes the embedding (the sharded stage) do real
  // per-node work and real per-node RNG draws.
  p.topo = "topo:clustered,regions=3,mix=0:0.5:0.5";
  return p;
}

constexpr std::size_t kThreadAxis[] = {1, 2, 8};

TEST(ParallelSimThreads, Fig01ByteIdenticalAcrossThreadMatrix) {
  FigureParams p = matrix_params();
  p.threads = 1;
  p.sim_threads = 1;
  const std::string baseline = render(run_figure("fig01", p));
  for (const std::size_t threads : kThreadAxis) {
    for (const std::size_t sim_threads : kThreadAxis) {
      p.threads = threads;
      p.sim_threads = sim_threads;
      EXPECT_EQ(render(run_figure("fig01", p)), baseline)
          << "threads=" << threads << " sim-threads=" << sim_threads;
    }
  }
}

TEST(ParallelSimThreads, Fig05ByteIdenticalAcrossThreadMatrix) {
  FigureParams p = matrix_params();
  p.estimations = 20;  // gossip rounds for the epoch-mode figure
  p.threads = 1;
  p.sim_threads = 1;
  const std::string baseline = render(run_figure("fig05", p));
  for (const std::size_t threads : kThreadAxis) {
    for (const std::size_t sim_threads : kThreadAxis) {
      p.threads = threads;
      p.sim_threads = sim_threads;
      EXPECT_EQ(render(run_figure("fig05", p)), baseline)
          << "threads=" << threads << " sim-threads=" << sim_threads;
    }
  }
}

TEST(ParallelSimThreads, TraceReplayByteIdenticalAcrossThreadMatrix) {
  MatrixOptions options;
  options.estimator = "sample_collide:l=10";
  options.scenario = "trace:weibull,shape=0.5";
  options.params = matrix_params();
  options.params.estimations = 3;
  const auto generate = [&] { return render(run_matrix(options)); };
  options.params.threads = 1;
  options.params.sim_threads = 1;
  const std::string baseline = generate();
  for (const std::size_t threads : kThreadAxis) {
    for (const std::size_t sim_threads : kThreadAxis) {
      options.params.threads = threads;
      options.params.sim_threads = sim_threads;
      EXPECT_EQ(generate(), baseline)
          << "threads=" << threads << " sim-threads=" << sim_threads;
    }
  }
}

TEST(ParallelSimThreads, AutoSimThreadsMatchesSequentialBytes) {
  // --sim-threads 0 (auto) resolves to whatever budget the hardware allows;
  // the bytes must not care.
  FigureParams p = matrix_params();
  p.threads = 2;
  p.sim_threads = 1;
  const std::string baseline = render(run_figure("fig01", p));
  p.sim_threads = 0;
  EXPECT_EQ(render(run_figure("fig01", p)), baseline);
}

}  // namespace
}  // namespace p2pse::harness
