// p2pse_bench — the measuring driver of the repository benchmark
// (bench/perf/run.py). One process runs ONE replica of ONE named workload on
// one thread and prints one JSON line.
//
// It times the pipeline from the outside, around the same public calls
// scenario::ScenarioRunner makes, in the same order and with the same RNG
// substreams: workload_by_name, the overlay build, set_network /
// set_topology, Dynamics::bind, then a closed loop of churn
// (DynamicsCursor::advance_to) and estimation (estimate_point, or
// start_epoch / run_round / epoch_estimate) — the next estimation starts
// only after the previous one finished. Its series is therefore the one
// `p2pse_matrix --csv` writes for replicas=1, which --selftest checks.
//
//   p2pse_bench --list
//   p2pse_bench --workload sc_static_1m --seed 42
//   p2pse_bench --workload sc_static_1m --seed 42 --trace-json out.json
//   p2pse_bench --selftest
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "p2pse/est/estimator.hpp"
#include "p2pse/est/registry.hpp"
#include "p2pse/harness/figures.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/obs/metrics.hpp"
#include "p2pse/obs/rusage.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/obs/trace_log.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/support/sharding.hpp"
#include "p2pse/topo/topology.hpp"

namespace {

using namespace p2pse;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::string_view name;
  std::string_view estimator;  ///< est::EstimatorRegistry spec
  std::string_view scenario;   ///< workload_by_name spec; "{seed}" = --seed
  std::size_t nodes;
  std::size_t estimations;  ///< point mode: estimations per replica
  double rounds_per_unit;   ///< epoch mode: gossip rounds per time unit
  std::string_view net;     ///< sim::NetworkConfig spec; empty = ideal
  std::string_view topo;    ///< topo::TopologyConfig spec; empty = flat
  /// Accuracy band (the paper's claim at this scale): the largest allowed
  /// mean |estimate - truth| / truth over valid estimates; 0 = no band.
  double max_rel_err_mean;
};

// Why each workload is here is in bench/perf/README.md.
constexpr Workload kWorkloads[] = {
    {"sc_static_1m", "sample_collide:l=200,T=10", "static", 1'000'000, 10,
     0.0, "", "", 0.10},
    {"agg_static_1m", "aggregation:rounds=50", "static", 1'000'000, 0, 0.05,
     "", "", 0.0},
    {"hs_static_1m", "hops_sampling", "static", 1'000'000, 10, 0.0, "", "",
     0.0},
    {"hs_trace_lossy_1m", "hops_sampling",
     "trace:weibull,duration=20,seed={seed}", 1'000'000, 10, 0.0,
     "net:loss=0.05,latency=exp:50", "topo:clustered,regions=8", 0.0},
};

/// Overlay size of the production-equivalence selftest.
constexpr std::size_t kSelftestNodes = 2000;

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  std::string known;
  for (const Workload& w : kWorkloads) {
    known += known.empty() ? "" : ", ";
    known += w.name;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (known: " + known + ")");
}

std::string scenario_spec(const Workload& w, std::uint64_t seed) {
  std::string spec(w.scenario);
  const std::size_t at = spec.find("{seed}");
  if (at != std::string::npos) spec.replace(at, 6, std::to_string(seed));
  return spec;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` inside a span named `name` (inert when `log` is null).
template <typename F>
auto in_span(obs::TraceLog* log, const char* name, F&& body) {
  const obs::Span span = log == nullptr ? obs::Span{} : log->span(name);
  return body();
}

/// One replica's measurements.
struct Rep {
  scenario::Series series;
  std::size_t nodes = 0;
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> step_s;  ///< one per estimation (or gossip round)
  std::uint64_t step_messages = 0;
  double coverage_sum = 0.0;
  std::size_t coverage_count = 0;
  std::size_t churn_calls = 0;
  obs::SimCounters before_steps;  ///< traced runs only
  obs::SimCounters after_steps;   ///< traced runs only
};

Rep run_rep(const Workload& w, std::uint64_t seed, std::size_t nodes,
            obs::TraceLog* log) {
  Rep rep;
  const Clock::time_point start = Clock::now();
  const obs::Span root_span =
      log == nullptr ? obs::Span{} : log->span("workload");
  const std::unique_ptr<est::Estimator> estimator =
      est::EstimatorRegistry::global().build(w.estimator);
  const sim::NetworkConfig network =
      w.net.empty() ? sim::NetworkConfig{} : sim::NetworkConfig::parse(w.net);
  const topo::TopologyConfig topology =
      w.topo.empty() ? topo::TopologyConfig{}
                     : topo::TopologyConfig::parse(w.topo);

  const std::shared_ptr<const scenario::Dynamics> dynamics =
      in_span(log, "trace.generate", [&] {
        return scenario::workload_by_name(scenario_spec(w, seed), nodes);
      });
  rep.nodes = dynamics->initial_size().value_or(nodes);

  // The substreams of ScenarioRunner replica 0.
  const support::RngStream root = support::RngStream(seed).split("replica", 0);
  support::RngStream graph_rng = root.split("graph");
  support::RngStream churn_rng = root.split("churn");
  support::RngStream est_rng = root.split("estimator");
  support::RngStream pick_rng = root.split("initiator");

  sim::Simulator sim = in_span(log, "net.build", [&] {
    return sim::Simulator(
        net::build_heterogeneous_random({rep.nodes, 1, 10}, graph_rng),
        root.split("sim").seed());
  });
  sim.set_network(network);
  const support::ShardExecutor shard_exec(1);
  in_span(log, "topo.embed", [&] { sim.set_topology(topology, &shard_exec); });
  const std::unique_ptr<scenario::DynamicsCursor> cursor =
      in_span(log, "scenario.bind",
              [&] { return dynamics->bind(sim.graph(), churn_rng); });
  rep.setup_s = seconds_since(start);
  if (log != nullptr) rep.before_steps = obs::collect(sim);

  const auto advance = [&](double t) {
    in_span(log, "scenario.churn", [&] { cursor->advance_to(t); });
    ++rep.churn_calls;
    sim.advance_to(t);
  };
  const auto live_initiator = [&](net::NodeId current) {
    return sim.graph().is_alive(current) ? current
                                         : sim.graph().random_alive(pick_rng);
  };
  const auto record = [&](double t, const est::Estimate& e,
                          std::uint64_t messages) {
    scenario::SeriesPoint point;
    point.time = t;
    point.truth = static_cast<double>(sim.graph().size());
    point.estimate = e.value;
    point.valid = e.valid;
    point.messages = messages;
    point.delay = e.delay;
    rep.series.push_back(point);
  };
  const auto timed_step = [&](auto&& body) {
    const std::uint64_t before = sim.meter().total();
    const Clock::time_point step_start = Clock::now();
    in_span(log, "est.step", body);
    rep.step_s.push_back(seconds_since(step_start));
    rep.step_messages += sim.meter().total() - before;
  };

  if (estimator->mode() == est::Estimator::Mode::kPoint) {
    const double interval =
        dynamics->duration() / static_cast<double>(w.estimations);
    net::NodeId initiator = sim.graph().random_alive(pick_rng);
    for (std::size_t i = 1; i <= w.estimations; ++i) {
      const double t = interval * static_cast<double>(i);
      advance(t);
      if (sim.graph().empty()) {
        record(t, est::Estimate::invalid_at(t), 0);
        continue;
      }
      initiator = live_initiator(initiator);
      est::Estimate e;
      timed_step(
          [&] { e = estimator->estimate_point(sim, initiator, est_rng); });
      record(t, e, e.messages);
      const double coverage = estimator->last_coverage();
      if (!std::isnan(coverage)) {
        rep.coverage_sum += coverage;
        ++rep.coverage_count;
      }
    }
  } else {
    const std::uint32_t rounds_per_epoch = estimator->rounds_per_epoch();
    const auto total_rounds = static_cast<std::uint64_t>(
        std::llround(dynamics->duration() * w.rounds_per_unit));
    const double unit_per_round = 1.0 / w.rounds_per_unit;
    net::NodeId initiator = net::kInvalidNode;
    std::uint64_t baseline_msgs = sim.meter().total();
    std::uint32_t round_in_epoch = rounds_per_epoch;  // forces a restart
    for (std::uint64_t round = 0; round < total_rounds; ++round) {
      const double t = unit_per_round * static_cast<double>(round + 1);
      advance(t);
      if (sim.graph().empty()) break;
      timed_step([&] {
        if (round_in_epoch >= rounds_per_epoch) {
          in_span(log, "est.start_epoch", [&] {
            initiator = live_initiator(initiator);
            estimator->start_epoch(sim, initiator, est_rng);
          });
          baseline_msgs = sim.meter().total();
          round_in_epoch = 0;
        }
        in_span(log, "est.round", [&] { estimator->run_round(sim, est_rng); });
        if (++round_in_epoch == rounds_per_epoch) {
          in_span(log, "est.epoch_estimate", [&] {
            const est::Estimate e =
                estimator->epoch_estimate(sim, live_initiator(initiator));
            record(t, e, sim.meter().since(baseline_msgs));
          });
        }
      });
    }
  }
  rep.wall_s = seconds_since(start);
  if (log != nullptr) rep.after_steps = obs::collect(sim);
  return rep;
}

// --- results ----------------------------------------------------------------

/// FNV-1a over every field of the series: equal digests mean equal series.
std::string series_digest(const scenario::Series& series) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  for (const scenario::SeriesPoint& p : series) {
    mix(&p.time, sizeof p.time);
    mix(&p.truth, sizeof p.truth);
    mix(&p.estimate, sizeof p.estimate);
    mix(&p.messages, sizeof p.messages);
    mix(&p.delay, sizeof p.delay);
    const unsigned char valid = p.valid ? 1 : 0;
    mix(&valid, 1);
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

/// How close a replica's estimates came to the true size.
struct Accuracy {
  std::size_t valid = 0;
  std::size_t invalid = 0;
  double rel_err_mean = 0.0;  ///< mean |estimate - truth| / truth, valid only
};

Accuracy accuracy(const scenario::Series& series) {
  Accuracy out;
  double err_sum = 0.0;
  for (const scenario::SeriesPoint& p : series) {
    if (!p.valid) {
      ++out.invalid;
      continue;
    }
    ++out.valid;
    err_sum += std::abs(p.estimate - p.truth) / p.truth;
  }
  if (out.valid > 0) {
    out.rel_err_mean = err_sum / static_cast<double>(out.valid);
  }
  return out;
}

/// Builds one flat JSON object; keys are emitted in insertion order.
class JsonObject {
 public:
  void add(std::string_view key, double value) {
    raw(key, obs::json_number(value));
  }
  void add(std::string_view key, std::string_view value) {
    raw(key, "\"" + obs::json_escape(value) + "\"");
  }
  void add_bool(std::string_view key, bool value) {
    raw(key, value ? "true" : "false");
  }
  void add(std::string_view key, const std::vector<double>& values) {
    std::string text = "[";
    for (const double value : values) {
      if (text.size() > 1) text += ',';
      text += obs::json_number(value);
    }
    raw(key, text + "]");
  }
  void add(std::string_view key, const JsonObject& value) {
    raw(key, value.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void raw(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + obs::json_escape(key) + "\":" + value;
  }
  std::string body_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics of a traced replica (see README.md for which
/// end-to-end metric each one should move).
JsonObject layer_metrics(const Rep& rep, const obs::TraceLog& log) {
  const std::map<std::string, double> phase = log.phase_totals();
  const auto total = [&phase](const char* name) {
    const auto it = phase.find(name);
    return it == phase.end() ? 0.0 : it->second;
  };
  const obs::SimCounters& a = rep.before_steps;
  const obs::SimCounters& b = rep.after_steps;
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const auto msgs = [&](sim::MessageClass cls) {
    const auto i = static_cast<std::size_t>(cls);
    return delta(b.messages[i], a.messages[i]);
  };

  JsonObject out;
  double children = 0.0;
  for (const char* name : {"trace.generate", "net.build", "topo.embed",
                           "scenario.bind", "scenario.churn", "est.step"}) {
    children += total(name);
  }
  out.add("workload.self_s", total("workload") - children);
  out.add("trace.generate_s", total("trace.generate"));
  out.add("net.build_s", total("net.build"));
  out.add("net.build_ns_per_node",
          1e9 * ratio(total("net.build"), static_cast<double>(rep.nodes)));
  out.add("topo.embed_s", total("topo.embed"));
  out.add("scenario.bind_s", total("scenario.bind"));

  const double joins = delta(b.graph_joins, a.graph_joins);
  const double leaves = delta(b.graph_leaves, a.graph_leaves);
  out.add("scenario.churn_s", total("scenario.churn"));
  out.add("scenario.churn_calls", static_cast<double>(rep.churn_calls));
  out.add("scenario.churn_ns_per_event",
          1e9 * ratio(total("scenario.churn"), joins + leaves));
  out.add("scenario.churn_share", ratio(total("scenario.churn"), rep.wall_s));
  out.add("net.joins", joins);
  out.add("net.leaves", leaves);
  out.add("net.chunk_recycles",
          delta(b.graph_chunk_recycles, a.graph_chunk_recycles));

  out.add("est.step_s", total("est.step"));
  out.add("est.ns_per_msg",
          1e9 * ratio(total("est.step"),
                      static_cast<double>(rep.step_messages)));
  out.add("est.round_s", total("est.round"));
  out.add("est.start_epoch_s", total("est.start_epoch"));
  out.add("est.epoch_estimate_s", total("est.epoch_estimate"));
  const Accuracy acc = accuracy(rep.series);
  out.add("est.valid_ratio", ratio(static_cast<double>(acc.valid),
                                   static_cast<double>(rep.series.size())));
  out.add("est.rel_err_mean", acc.rel_err_mean);
  out.add("est.coverage_mean",
          ratio(rep.coverage_sum, static_cast<double>(rep.coverage_count)));

  out.add("sim.msgs.walk_step", msgs(sim::MessageClass::kWalkStep));
  out.add("sim.msgs.sample_reply", msgs(sim::MessageClass::kSampleReply));
  out.add("sim.msgs.gossip_spread", msgs(sim::MessageClass::kGossipSpread));
  out.add("sim.msgs.poll_reply", msgs(sim::MessageClass::kPollReply));
  out.add("sim.msgs.aggregation_push",
          msgs(sim::MessageClass::kAggregationPush));
  out.add("sim.msgs.aggregation_pull",
          msgs(sim::MessageClass::kAggregationPull));
  out.add("sim.msgs.total", delta(b.messages_total, a.messages_total));
  out.add("sim.bytes.total", delta(b.bytes_total, a.bytes_total));

  const double iid = delta(b.channel_sends_iid, a.channel_sends_iid);
  const double link = delta(b.channel_sends_link, a.channel_sends_link);
  const double drops = delta(b.channel_drops, a.channel_drops);
  out.add("sim.channel.sends_iid", iid);
  out.add("sim.channel.sends_link", link);
  out.add("sim.channel.drops", drops);
  out.add("sim.channel.retransmits",
          delta(b.channel_retransmits, a.channel_retransmits));
  out.add("sim.channel.arq_timeouts",
          delta(b.channel_arq_timeouts, a.channel_arq_timeouts));
  out.add("sim.channel.delivery_ratio", ratio(iid + link - drops, iid + link));
  out.add("sim.channel.link_share", ratio(link, iid + link));
  return out;
}

JsonObject rep_json(const Workload& w, std::uint64_t seed, const Rep& rep) {
  const Accuracy acc = accuracy(rep.series);
  const bool accuracy_ok =
      acc.valid > 0 &&
      (w.max_rel_err_mean == 0.0 || acc.rel_err_mean <= w.max_rel_err_mean);

  JsonObject out;
  out.add("workload", w.name);
  out.add("seed", static_cast<double>(seed));
  out.add("nodes", static_cast<double>(rep.nodes));
  out.add("digest", series_digest(rep.series));
  out.add("estimates", static_cast<double>(rep.series.size()));
  out.add("invalid", static_cast<double>(acc.invalid));
  out.add("rel_err_mean", acc.rel_err_mean);
  out.add_bool("accuracy_ok", accuracy_ok);
  out.add("wall_s", rep.wall_s);
  out.add("setup_s", rep.setup_s);
  out.add("step_messages", static_cast<double>(rep.step_messages));
  out.add("peak_rss_kb", static_cast<double>(obs::peak_rss_kb()));
  out.add("step_s", rep.step_s);
  return out;
}

// --- production-equivalence selftest ----------------------------------------

/// Runs every workload shape at kSelftestNodes through this driver and
/// through harness::run_matrix (replicas=1, threads=1: the rows
/// `p2pse_matrix --csv` writes) and requires the two series to agree field
/// for field.
int selftest() {
  constexpr std::uint64_t kSeed = 42;
  int failures = 0;
  for (const Workload& w : kWorkloads) {
    const Rep rep = run_rep(w, kSeed, kSelftestNodes, nullptr);
    harness::MatrixOptions options;
    options.estimator = std::string(w.estimator);
    options.scenario = scenario_spec(w, kSeed);
    if (w.rounds_per_unit > 0.0) options.rounds_per_unit = w.rounds_per_unit;
    options.params.nodes = kSelftestNodes;
    options.params.seed = kSeed;
    options.params.estimations = w.estimations;
    options.params.replicas = 1;
    options.params.threads = 1;
    options.params.net = std::string(w.net);
    options.params.topo = std::string(w.topo);
    const harness::FigureReport report = harness::run_matrix(options);

    std::string mismatch;
    if (report.raw_rows.size() != rep.series.size()) {
      mismatch = "row count " + std::to_string(report.raw_rows.size()) +
                 " vs " + std::to_string(rep.series.size());
    }
    for (std::size_t i = 0; mismatch.empty() && i < rep.series.size(); ++i) {
      // raw row: replica, time, truth, estimate, messages, valid
      const std::vector<double>& row = report.raw_rows[i];
      const scenario::SeriesPoint& p = rep.series[i];
      const bool same = row.size() == 6 && row[0] == 0.0 && row[1] == p.time &&
                        row[2] == p.truth && row[3] == p.estimate &&
                        row[4] == static_cast<double>(p.messages) &&
                        row[5] == (p.valid ? 1.0 : 0.0);
      if (!same) mismatch = "row " + std::to_string(i) + " differs";
    }
    const std::string verdict =
        mismatch.empty() ? "match" : "MISMATCH: " + mismatch;
    std::printf("selftest %-20s %3zu rows  %s\n", std::string(w.name).c_str(),
                rep.series.size(), verdict.c_str());
    failures += mismatch.empty() && !rep.series.empty() ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const support::Args args(argc, argv);
    args.require_known({"list", "selftest", "workload", "seed", "trace-json"});
    if (args.help_requested()) {
      std::printf(
          "%s — one benchmark replica per process (bench/perf/README.md)\n"
          "  --list              print the workload names\n"
          "  --workload NAME     run one replica of NAME; print a JSON line\n"
          "  --seed S            root seed (default 42)\n"
          "  --trace-json PATH   traced replica: per-layer metrics plus a\n"
          "                      Chrome trace-event span file at PATH\n"
          "  --selftest          check every workload shape against\n"
          "                      harness::run_matrix at %zu nodes\n",
          argv[0], kSelftestNodes);
      return 0;
    }
    if (args.get_bool("list", false)) {
      for (const Workload& w : kWorkloads) {
        std::printf("%s\n", std::string(w.name).c_str());
      }
      return 0;
    }
    if (args.get_bool("selftest", false)) return selftest();

    const Workload& w = find_workload(args.get_string("workload", ""));
    const std::uint64_t seed = args.get_uint("seed", 42);
    const std::string trace_path = args.get_string("trace-json", "");
    std::unique_ptr<obs::TraceLog> log;
    if (!trace_path.empty()) log = std::make_unique<obs::TraceLog>();
    const Rep rep = run_rep(w, seed, w.nodes, log.get());

    JsonObject out = rep_json(w, seed, rep);
    if (log) {
      out.add("layers", layer_metrics(rep, *log));
      std::ofstream file(trace_path);
      log->write(file);
      if (!file) throw std::runtime_error("cannot write " + trace_path);
    }
    std::printf("%s\n", out.str().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], error.what());
    return 1;
  }
}
