// google-benchmark microbenchmarks for the performance-critical substrate
// operations: graph construction, walk steps, gossip rounds, churn, and
// trace generation/replay.
//
// Besides the console table, `--bench-json PATH` writes a machine-readable
// {"benchmark name": ns_per_op, ...} map — the BENCH_micro.json artifact CI
// uploads so the perf trajectory across PRs is diffable. Without the flag no
// file is written; all other flags pass through to Google Benchmark.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/analysis.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/churn.hpp"
#include "p2pse/net/cyclon.hpp"
#include "p2pse/scenario/replica.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/topo/topology.hpp"
#include "p2pse/trace/cursor.hpp"
#include "p2pse/trace/generators.hpp"

namespace {

using namespace p2pse;

void BM_BuildHeterogeneous(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    support::RngStream rng(42);
    net::Graph g = net::build_heterogeneous_random({nodes, 1, 10}, rng);
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BuildHeterogeneous)->Arg(10000)->Arg(100000);

void BM_BuildBarabasiAlbert(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    support::RngStream rng(42);
    net::Graph g = net::build_barabasi_albert({nodes, 3}, rng);
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BuildBarabasiAlbert)->Arg(10000)->Arg(100000);

void BM_SampleCollideWalk(benchmark::State& state) {
  support::RngStream build_rng(42);
  sim::Simulator sim(net::build_heterogeneous_random({50000, 1, 10}, build_rng),
                     43);
  support::RngStream rng(44);
  const est::SampleCollide sc({.timer = 10.0, .collisions = 1});
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const est::WalkSample ws = sc.sample(sim, 0, rng);
    benchmark::DoNotOptimize(ws.node);
    steps += ws.steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["steps/walk"] = benchmark::Counter(
      static_cast<double>(steps) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SampleCollideWalk);

void BM_SampleCollideEstimate(benchmark::State& state) {
  support::RngStream build_rng(42);
  sim::Simulator sim(net::build_heterogeneous_random({20000, 1, 10}, build_rng),
                     43);
  support::RngStream rng(44);
  est::SampleCollide sc({.timer = 10.0, .collisions = 50});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc.estimate_point(sim, 0, rng).value);
  }
}
BENCHMARK(BM_SampleCollideEstimate);

void BM_AggregationRound(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  support::RngStream build_rng(42);
  sim::Simulator sim(net::build_heterogeneous_random({nodes, 1, 10}, build_rng),
                     43);
  support::RngStream rng(44);
  est::Aggregation agg({.rounds_per_epoch = 50});
  agg.start_epoch(sim, 0);
  for (auto _ : state) {
    agg.run_round(sim, rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AggregationRound)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_HopsSamplingPoll(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  support::RngStream build_rng(42);
  sim::Simulator sim(net::build_heterogeneous_random({nodes, 1, 10}, build_rng),
                     43);
  support::RngStream rng(44);
  const est::HopsSampling hs({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(hs.run_once(sim, 0, rng).estimate.value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HopsSamplingPoll)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_CyclonRound(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  net::CyclonOverlay overlay(nodes, {10, 4}, support::RngStream(42));
  for (auto _ : state) {
    overlay.run_round();
    benchmark::DoNotOptimize(overlay.messages());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CyclonRound)->Arg(10000)->Arg(50000);

void BM_ChannelSendIdeal(benchmark::State& state) {
  // The loss-free fast path every protocol message takes on an ideal
  // network: must stay within noise of the bare meter increment.
  sim::Channel channel;
  sim::MessageMeter meter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel.send(meter, sim::MessageClass::kWalkStep, 0, 1).delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelSendIdeal);

void BM_ChannelSendLossy(benchmark::State& state) {
  sim::NetworkConfig config;
  config.loss = 0.05;
  config.latency = sim::LatencyModel::exponential(50.0);
  sim::Channel channel(config, support::RngStream(42));
  sim::MessageMeter meter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel.send(meter, sim::MessageClass::kWalkStep, 0, 1).delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelSendLossy);

void BM_ChannelSendArqLossy(benchmark::State& state) {
  sim::NetworkConfig config;
  config.loss = 0.2;
  config.latency = sim::LatencyModel::constant(1.0);
  sim::Channel channel(config, support::RngStream(42));
  sim::MessageMeter meter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel.send_arq(meter, sim::MessageClass::kWalkStep, 0, 1)
            .delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelSendArqLossy);

void BM_TopologyNodeDraw(benchmark::State& state) {
  // Cost of embedding one node (coordinates + region + class) from its
  // dedicated substream — paid once per node id per replica.
  const topo::TopologyConfig config =
      topo::TopologyConfig::parse("topo:clustered");
  net::NodeId id = 0;
  std::optional<topo::Topology> topology;
  topology.emplace(config, support::RngStream(42).split("topo"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology->node(id++).x);
    if (id == 100000) {  // re-embed instead of growing the cache unbounded
      state.PauseTiming();
      // p2pse-lint: allow(dup-split) intentional: re-derives the SAME stream to rebuild an identical topology with an empty cache
      topology.emplace(config, support::RngStream(42).split("topo"));
      id = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TopologyNodeDraw);

void BM_ChannelSendPerLink(benchmark::State& state) {
  // The per-link counterpart of BM_ChannelSendLossy: same i.i.d. knobs plus
  // the clustered topology's link composition (cached embeddings — the
  // steady state every protocol message pays).
  sim::NetworkConfig config;
  config.loss = 0.05;
  config.latency = sim::LatencyModel::exponential(50.0);
  topo::Topology topology(topo::TopologyConfig::parse("topo:clustered"),
                          support::RngStream(42).split("topo"));
  sim::Channel channel(config, support::RngStream(42));
  channel.set_topology(&topology);
  sim::MessageMeter meter;
  support::RngStream pick(7);
  for (auto _ : state) {
    const auto from = static_cast<net::NodeId>(pick.uniform_u64(1000));
    const auto to = static_cast<net::NodeId>(pick.uniform_u64(1000));
    benchmark::DoNotOptimize(
        channel.send(meter, sim::MessageClass::kWalkStep, from, to)
            .delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelSendPerLink);

void BM_AggregationRoundPerLink(benchmark::State& state) {
  // Protocol-level cost of the per-link mode (compare BM_AggregationRound
  // and BM_AggregationRoundLossy).
  const auto nodes = static_cast<std::size_t>(state.range(0));
  support::RngStream build_rng(42);
  sim::Simulator sim(net::build_heterogeneous_random({nodes, 1, 10}, build_rng),
                     43);
  sim.set_topology(topo::TopologyConfig::parse("topo:clustered"));
  support::RngStream rng(44);
  est::Aggregation agg({.rounds_per_epoch = 50});
  agg.start_epoch(sim, 0);
  for (auto _ : state) {
    agg.run_round(sim, rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AggregationRoundPerLink)->Arg(10000);

void BM_AggregationRoundLossy(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  support::RngStream build_rng(42);
  sim::Simulator sim(net::build_heterogeneous_random({nodes, 1, 10}, build_rng),
                     43);
  sim::NetworkConfig config;
  config.loss = 0.05;
  config.latency = sim::LatencyModel::exponential(50.0);
  sim.set_network(config);
  support::RngStream rng(44);
  est::Aggregation agg({.rounds_per_epoch = 50});
  agg.start_epoch(sim, 0);
  for (auto _ : state) {
    agg.run_round(sim, rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AggregationRoundLossy)->Arg(10000);

void BM_GraphAddRemoveEdge(benchmark::State& state) {
  // Random edge toggle on a paper-sized overlay: dedup scan + append +
  // swap-with-back removal, all in the shared arena (no allocation at
  // steady state — every chunk is recycled).
  support::RngStream build_rng(42);
  net::Graph g = net::build_heterogeneous_random({10000, 1, 10}, build_rng);
  support::RngStream rng(44);
  for (auto _ : state) {
    const net::NodeId a = g.random_alive(rng);
    const net::NodeId b = g.random_alive(rng);
    if (a != b && g.add_edge(a, b)) {
      benchmark::DoNotOptimize(g.remove_edge(a, b));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GraphAddRemoveEdge);

void BM_GraphNeighborScan(benchmark::State& state) {
  // Full adjacency sweep of a 1M-node overlay: the SoA arena turns this
  // into a near-linear stream (per-node vectors made it a pointer chase).
  const auto nodes = static_cast<std::size_t>(state.range(0));
  support::RngStream build_rng(42);
  const net::Graph g =
      net::build_heterogeneous_random({nodes, 1, 10}, build_rng);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const net::NodeId u : g.alive_nodes()) {
      for (const net::NodeId v : g.neighbors(u)) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * g.edge_count()));
}
BENCHMARK(BM_GraphNeighborScan)->Arg(1000000);

void BM_BuildAndEmbed(benchmark::State& state) {
  // One replica's setup as every run performs it (scenario::Replica): the
  // §IV-A heterogeneous build, then the clustered topology embedding
  // sharded across range(1) sim workers. The build is sequential; the
  // bytes are identical at every budget, so the /1-vs-/4 wall-clock ratio
  // is what --sim-threads buys a 1M-node setup.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  scenario::RunOptions options;
  options.topology = topo::TopologyConfig::parse("topo:clustered");
  options.sim_workers = static_cast<std::size_t>(state.range(1));
  const scenario::GraphFactory build = [nodes](support::RngStream& rng) {
    return net::build_heterogeneous_random({nodes, 1, 10}, rng);
  };
  for (auto _ : state) {
    scenario::Replica replica(options, build, support::RngStream(42));
    benchmark::DoNotOptimize(replica.sim().graph().edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BuildAndEmbed)
    ->Args({1000000, 1})
    ->Args({1000000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_RngBatchedUniform(benchmark::State& state) {
  // Batched uniform fill (4096 doubles per call) — same stream consumption
  // as 4096 scalar uniform_real() calls, amortizing the per-draw accounting
  // and call overhead.
  support::RngStream rng(42);
  std::vector<double> buf(4096);
  for (auto _ : state) {
    rng.fill_uniform(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_RngBatchedUniform);

void BM_ChurnStep(benchmark::State& state) {
  support::RngStream build_rng(42);
  net::Graph g = net::build_heterogeneous_random({50000, 1, 10}, build_rng);
  support::RngStream rng(44);
  net::ConstantChurn churn(50.0, 50.0);
  for (auto _ : state) {
    churn.step(g, 1.0, rng);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_ChurnStep);

void BM_BfsDistances(benchmark::State& state) {
  support::RngStream build_rng(42);
  const net::Graph g =
      net::build_heterogeneous_random({100000, 1, 10}, build_rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::bfs_distances(g, 0).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_BfsDistances);

void BM_TraceGenerateWeibull(benchmark::State& state) {
  trace::SessionWorkloadConfig config;
  config.initial_sessions = static_cast<std::uint64_t>(state.range(0));
  config.duration = 1000.0;
  config.lifetime.law = trace::Lifetime::Law::kWeibull;
  config.lifetime.shape = 0.5;
  config.lifetime.scale = 50.0;
  std::size_t events = 0;
  for (auto _ : state) {
    const trace::ChurnTrace t =
        trace::generate_sessions(config, support::RngStream(42));
    benchmark::DoNotOptimize(t.events.data());
    events += t.events.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceGenerateWeibull)->Arg(10000)->Arg(100000);

void BM_TraceReplay(benchmark::State& state) {
  trace::SessionWorkloadConfig config;
  config.initial_sessions = static_cast<std::uint64_t>(state.range(0));
  config.duration = 1000.0;
  const trace::ChurnTrace t =
      trace::generate_sessions(config, support::RngStream(42));
  support::RngStream build_rng(43);
  const net::Graph base = net::build_heterogeneous_random(
      {static_cast<std::size_t>(config.initial_sessions), 1, 10}, build_rng);
  std::size_t events = 0;
  for (auto _ : state) {
    net::Graph g = base;  // fresh overlay per replay (copy, not rebuild)
    trace::TraceCursor cursor(t, g, {}, support::RngStream(44));
    cursor.advance_to(t.duration);
    benchmark::DoNotOptimize(g.size());
    events += t.events.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceReplay)->Arg(10000)->Arg(50000);

/// Console output plus a (name -> ns/op) capture for BENCH_micro.json.
/// With --benchmark_repetitions the "mean" aggregate wins over individual
/// repetitions, so the artifact records the stable statistic.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Aggregate) {
        if (run.aggregate_name != "mean") continue;
        const std::string name = run.run_name.str();
        ns_per_op_[name] = run.GetAdjustedRealTime();
        from_aggregate_.insert(name);
      } else if (!from_aggregate_.contains(run.benchmark_name())) {
        ns_per_op_[run.benchmark_name()] = run.GetAdjustedRealTime();
      }
    }
  }

  /// Writes {"name": ns_per_op, ...}; returns false on I/O failure.
  [[nodiscard]] bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n";
    bool first = true;
    for (const auto& [name, ns] : ns_per_op_) {
      if (!first) out << ",\n";
      first = false;
      std::string escaped;
      for (const char c : name) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      out << "  \"" << escaped << "\": " << ns;
    }
    out << "\n}\n";
    return static_cast<bool>(out);
  }

 private:
  std::map<std::string, double> ns_per_op_;
  std::set<std::string> from_aggregate_;
};

}  // namespace

int main(int argc, char** argv) {
  // Extract our own --bench-json flag before Google Benchmark sees the
  // command line (it hard-errors on flags it does not know).
  std::string json_path;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--bench-json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.substr(0, 13) == "--bench-json=") {
      json_path = std::string(arg.substr(13));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (json_path.empty()) return 0;
  if (!reporter.write_json(json_path)) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
