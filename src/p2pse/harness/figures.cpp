#include "p2pse/harness/figures.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/delay.hpp"
#include "p2pse/est/estimator.hpp"
#include "p2pse/est/flat_polling.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/interval_density.hpp"
#include "p2pse/est/inverted_birthday.hpp"
#include "p2pse/est/random_tour.hpp"
#include "p2pse/est/registry.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/est/smoothing.hpp"
#include "p2pse/harness/parallel_runner.hpp"
#include "p2pse/net/analysis.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/cyclon.hpp"
#include "p2pse/net/random_walk.hpp"
#include "p2pse/obs/size_model.hpp"
#include "p2pse/obs/telemetry.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/csv.hpp"
#include "p2pse/support/sharding.hpp"
#include "p2pse/support/stats.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::harness {
namespace {

using support::format_double;
using support::RngStream;

std::string human_count(double v) {
  std::ostringstream out;
  if (v >= 1e6) {
    out << format_double(v / 1e6, 3) << "M";
  } else if (v >= 1e3) {
    out << format_double(v / 1e3, 3) << "k";
  } else {
    out << format_double(v, 3);
  }
  return out.str();
}

net::Graph build_hetero(std::size_t nodes, RngStream& rng) {
  return net::build_heterogeneous_random({nodes, 1, 10}, rng);
}

scenario::GraphFactory hetero_factory(std::size_t nodes) {
  return [nodes](RngStream& rng) { return build_hetero(nodes, rng); };
}

/// Human label of a scenario name for figure titles.
std::string_view kind_label(std::string_view scenario) {
  if (scenario == "catastrophic") return "catastrophic failures";
  if (scenario == "growing") return "growing network";
  if (scenario == "shrinking") return "shrinking network";
  if (scenario == "oscillating") return "oscillating flash crowds";
  if (scenario.substr(0, scenario::kTraceWorkloadPrefix.size()) ==
      scenario::kTraceWorkloadPrefix) {
    return scenario;  // trace workloads label themselves by their spec
  }
  return "static overlay";
}

support::PlotOptions quality_plot(std::string title, std::string x_label) {
  support::PlotOptions plot;
  plot.title = std::move(title);
  plot.x_label = std::move(x_label);
  plot.y_label = "Quality %";
  plot.y_min = 0.0;
  plot.y_max = 140.0;
  plot.height = 18;
  return plot;
}

/// Parses the figure's --net spec (empty = ideal channel).
sim::NetworkConfig net_config(const FigureParams& params) {
  return params.net.empty() ? sim::NetworkConfig{}
                            : sim::NetworkConfig::parse(params.net);
}

/// Parses the figure's --topo spec (empty = flat topology).
topo::TopologyConfig topo_config(const FigureParams& params) {
  return params.topo.empty() ? topo::TopologyConfig{}
                             : topo::TopologyConfig::parse(params.topo);
}

/// Params-line suffix describing the delivery layer. Empty on the ideal
/// channel, so every pre-channel figure (and an explicit
/// "net:loss=0,latency=constant:0") stays byte-identical.
std::string net_suffix(const sim::NetworkConfig& net) {
  return net.ideal() ? std::string{} : " " + net.canonical();
}

/// Params-line suffix describing the topology layer; empty when flat, so
/// pre-topology figures (and an explicit "topo:flat") stay byte-identical.
std::string topo_suffix(const topo::TopologyConfig& topology) {
  return topology.flat() ? std::string{} : " " + topology.canonical();
}

/// Params-line suffix for a non-default wire-size model (--sizes); empty on
/// the defaults (and an explicit all-default spec), so every pre-existing
/// figure stays byte-identical.
std::string sizes_suffix(const FigureParams& params) {
  if (params.sizes.empty()) return {};
  const obs::MessageSizeModel model =
      obs::MessageSizeModel::parse(params.sizes);
  if (model == obs::MessageSizeModel{}) return {};
  return " " + model.canonical();
}

/// The replica setup a figure installs from its CLI knobs: --net, --topo,
/// --sizes, the telemetry sink, and the intra-replica worker budget.
/// Generators that reject --net/--topo check first, so theirs are ideal
/// and flat.
scenario::RunOptions replica_options(const FigureParams& params,
                                     std::size_t sim_workers = 1) {
  scenario::RunOptions options;
  options.network = net_config(params);
  options.topology = topo_config(params);
  options.sizes = params.sizes;
  options.telemetry = params.telemetry;
  options.sim_workers = sim_workers;
  return options;
}

/// Opens a named trace span (inert without a sink). `tid` is the viewer
/// lane: 0 = the coordinating thread, 1+ = replica workers.
obs::Span obs_span(const FigureParams& params, const char* name,
                   int tid = 0) {
  if (params.telemetry == nullptr) return obs::Span{};
  return params.telemetry->span(name, tid);
}

/// This figure's intra-replica worker budget: --sim-threads resolved
/// against the replica pool's width so replicas x shards never
/// oversubscribes the machine.
std::size_t figure_sim_budget(const FigureParams& params,
                              const ParallelReplicaRunner& pool) {
  return support::sim_worker_budget(pool.thread_count(), params.sim_threads);
}

/// The replica setup of a generator whose machinery does not route
/// traffic through a configurable channel. A non-ideal --net or a non-flat
/// --topo is a hard error, never a silent ideal-channel or flat-topology
/// run (the same no-silent-fallback rule as unknown flags).
scenario::RunOptions unrouted_options(const FigureParams& params,
                                      std::string_view id) {
  scenario::RunOptions options = replica_options(params);
  if (!options.network.ideal()) {
    throw std::invalid_argument(
        std::string(id) +
        ": --net is not supported by this figure; it always runs the ideal "
        "channel (drop the flag)");
  }
  if (!options.topology.flat()) {
    throw std::invalid_argument(
        std::string(id) +
        ": --topo is not supported by this figure; it always runs the flat "
        "topology (drop the flag)");
  }
  return options;
}

/// Parses a spec-table estimator string and layers the CLI-tunable paper
/// parameters (FigureParams) underneath any overrides the table already
/// carries. `smooth_hs` injects the lastKruns window for dynamic
/// HopsSampling figures; static figures smooth in the series loop instead.
est::EstimatorSpec spec_with_params(std::string_view text,
                                    const FigureParams& params,
                                    bool smooth_hs) {
  est::EstimatorSpec spec = est::EstimatorSpec::parse(text);
  if (spec.name == "sample_collide") {
    spec.set_default("l", std::to_string(params.sc_collisions));
    spec.set_default("T", format_double(params.sc_timer));
  } else if (spec.name == "aggregation" || spec.name == "aggregation_suite") {
    spec.set_default("rounds", std::to_string(params.agg_rounds));
  } else if (spec.name == "hops_sampling" && smooth_hs) {
    spec.set_default("last_k", std::to_string(params.last_k));
  }
  return spec;
}

/// Shared body of Figs 1/2/18 and 3/4: run `estimations` one-shot polls of a
/// point estimator on a static heterogeneous overlay, reporting oneShot and
/// lastK quality series.
struct StaticSeriesResult {
  support::Series one_shot{"one shot", {}, {}, '*'};
  support::Series last_k;
  support::RunningStats err_one_shot;   // |quality-100|
  support::RunningStats err_last_k;
  support::RunningStats signed_err_one_shot;  // quality-100
  support::RunningStats messages;
  support::RunningStats reach;  // poll coverage fraction (spread phase only)
  support::RunningStats delay;  // measured per-estimate channel delay
  /// Alive peers per topology class (all zero on the flat topology).
  std::array<std::size_t, topo::kPeerClassCount> class_census{};
  /// (estimation index, truth, estimate, messages, valid) for --csv
  /// export. Invalid estimates are kept but flagged so external plots can
  /// filter them instead of charting value 0.
  std::vector<std::array<double, 5>> raw;
};

StaticSeriesResult run_static_series(sim::Simulator& sim,
                                     std::size_t estimations,
                                     std::size_t last_k_window,
                                     RngStream& est_rng, net::NodeId initiator,
                                     est::Estimator& estimator) {
  StaticSeriesResult result;
  result.last_k.name = "last " + std::to_string(last_k_window) + " runs";
  result.last_k.glyph = '+';
  est::LastKAverage smoother(last_k_window);
  const double truth = static_cast<double>(sim.graph().size());
  for (std::size_t i = 1; i <= estimations; ++i) {
    const est::Estimate e = estimator.estimate_point(sim, initiator, est_rng);
    const double coverage = estimator.last_coverage();
    if (!std::isnan(coverage)) result.reach.add(coverage);
    result.raw.push_back({static_cast<double>(i), truth, e.value,
                          static_cast<double>(e.messages),
                          e.valid ? 1.0 : 0.0});
    if (!e.valid) continue;
    const double q_one = support::quality_percent(e.value, truth);
    const double q_avg = support::quality_percent(smoother.add(e.value), truth);
    result.one_shot.x.push_back(static_cast<double>(i));
    result.one_shot.y.push_back(q_one);
    result.last_k.x.push_back(static_cast<double>(i));
    result.last_k.y.push_back(q_avg);
    result.err_one_shot.add(std::abs(q_one - 100.0));
    result.signed_err_one_shot.add(q_one - 100.0);
    if (smoother.full()) result.err_last_k.add(std::abs(q_avg - 100.0));
    result.messages.add(static_cast<double>(e.messages));
    result.delay.add(e.delay);
  }
  return result;
}

/// Assembles the dynamic-figure report: truth line + one estimate series per
/// replica, as in Figs 9-17.
FigureReport dynamic_report(const std::vector<scenario::Series>& replicas,
                            std::string x_label, double x_scale) {
  FigureReport report;
  report.plot.x_label = std::move(x_label);
  report.plot.y_label = "Estimated size";
  report.plot.height = 18;
  support::Series truth{"Real network size", {}, {}, '.'};
  if (!replicas.empty()) {
    for (const auto& point : replicas.front()) {
      truth.x.push_back(point.time * x_scale);
      truth.y.push_back(point.truth);
    }
  }
  report.series.push_back(std::move(truth));
  const char glyphs[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    support::Series s;
    s.name = "Estimation #" + std::to_string(r + 1);
    s.glyph = glyphs[r % sizeof glyphs];
    for (const auto& point : replicas[r]) {
      if (!point.valid) continue;
      s.x.push_back(point.time * x_scale);
      s.y.push_back(point.estimate);
    }
    report.series.push_back(std::move(s));
  }
  return report;
}

double mean_tracking_error(const std::vector<scenario::Series>& replicas) {
  support::RunningStats err;
  for (const auto& series : replicas) {
    for (const auto& point : series) {
      if (point.valid && point.truth > 0.0) {
        err.add(std::abs(point.estimate - point.truth) / point.truth);
      }
    }
  }
  return err.mean();
}

double mean_messages(const std::vector<scenario::Series>& replicas) {
  support::RunningStats msgs;
  for (const auto& series : replicas) {
    for (const auto& point : series) {
      if (point.valid) msgs.add(static_cast<double>(point.messages));
    }
  }
  return msgs.mean();
}

double mean_delay(const std::vector<scenario::Series>& replicas) {
  support::RunningStats delay;
  for (const auto& series : replicas) {
    for (const auto& point : series) {
      if (point.valid) delay.add(point.delay);
    }
  }
  return delay.mean();
}

/// Records the per-replica (time, truth, estimate, messages) series for
/// --csv export. Not printed with the report.
void attach_raw_series(FigureReport& report,
                       const std::vector<scenario::Series>& replicas) {
  report.raw_columns = {"replica", "time",     "truth",
                        "estimate", "messages", "valid"};
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    for (const auto& point : replicas[r]) {
      report.raw_rows.push_back({static_cast<double>(r), point.time,
                                 point.truth, point.estimate,
                                 static_cast<double>(point.messages),
                                 point.valid ? 1.0 : 0.0});
    }
  }
}

// --- static setting (§IV-C): Figs 1-4, 18 -----------------------------------

FigureReport fig_static_quality(const FigureSpec& spec,
                                const FigureParams& params) {
  const std::unique_ptr<est::Estimator> proto =
      est::EstimatorRegistry::global().build(
          spec_with_params(spec.estimator, params, /*smooth_hs=*/false));
  const RngStream root(params.seed);
  const ParallelReplicaRunner pool(params.threads);
  const scenario::RunOptions options =
      replica_options(params, figure_sim_budget(params, pool));
  const sim::NetworkConfig& net = options.network;
  const topo::TopologyConfig& topology = options.topology;
  // Replica `rep` builds its own overlay and streams from split(tag, rep),
  // so results do not depend on the thread count.
  const std::size_t replicas = std::max<std::size_t>(1, params.replicas);
  const auto outcomes =
      pool.map<StaticSeriesResult>(replicas, [&](std::size_t rep) {
    const int lane = static_cast<int>(rep) + 1;
    scenario::Replica replica(options, hetero_factory(params.nodes), root,
                              rep, lane);
    sim::Simulator& sim = replica.sim();
    RngStream pick = root.split("initiator", rep);
    RngStream est_rng = root.split("estimator", rep);
    const std::unique_ptr<est::Estimator> estimator = proto->clone();
    const net::NodeId initiator = sim.graph().random_alive(pick);
    const obs::Span sim_span = obs_span(params, "simulate", lane);
    StaticSeriesResult result = run_static_series(
        sim, params.estimations, params.last_k, est_rng, initiator,
        *estimator);
    if (sim.topology()) {
      result.class_census = sim.topology()->alive_class_counts();
    }
    return result;
  });
  const obs::Span merge_span = obs_span(params, "merge");
  StaticSeriesResult r;  // cross-replica aggregates, merged in replica order
  for (const auto& o : outcomes) {
    r.err_one_shot.merge(o.err_one_shot);
    r.err_last_k.merge(o.err_last_k);
    r.signed_err_one_shot.merge(o.signed_err_one_shot);
    r.messages.merge(o.messages);
    r.reach.merge(o.reach);
    r.delay.merge(o.delay);
  }

  FigureReport report;
  report.id = "fig_" + std::string(proto->short_name()) + "_static";
  report.title = std::string(proto->display_name()) + ": oneShot and last" +
                 std::to_string(params.last_k) +
                 "runs quality, static overlay";
  report.params = "nodes=" + std::to_string(params.nodes) + " " +
                  proto->describe() +
                  " estimations=" + std::to_string(params.estimations) +
                  " replicas=" + std::to_string(outcomes.size()) +
                  " seed=" + std::to_string(params.seed) + net_suffix(net) +
                  topo_suffix(topology) + sizes_suffix(params);
  report.plot = quality_plot(
      "Quality of " + std::string(proto->display_name()) + " estimations",
      "Number of estimations");
  report.series = {outcomes.front().one_shot, outcomes.front().last_k};

  // Paper-comparison suffixes differ per candidate; the measurements and
  // their order do not.
  const bool polls = r.reach.count() > 0;  // spread-phase estimators
  const bool is_sc = proto->name() == "sample_collide";
  const bool is_hs = proto->name() == "hops_sampling";
  report.notes.push_back(
      "mean |error| oneShot: " + format_double(r.err_one_shot.mean(), 3) +
      "%" +
      (is_sc ? " (paper: mostly within 10%, peaks to 20%)"
             : is_hs ? " (paper: peaks over 50%)" : ""));
  report.notes.push_back(
      "mean |error| lastK:   " + format_double(r.err_last_k.mean(), 3) + "%" +
      (is_sc ? " (paper: within 3-4%)"
             : is_hs ? " (paper: within 20%, consistent under-estimation)"
                     : ""));
  if (polls) {
    report.notes.push_back(
        "mean signed error oneShot: " +
        format_double(r.signed_err_one_shot.mean(), 3) +
        "% (negative = under-estimates, as the paper observes)");
    report.notes.push_back(
        "mean poll coverage: " + format_double(100.0 * r.reach.mean(), 4) +
        "% of nodes reached" + (is_hs ? " (paper: ~89% at 1e5)" : ""));
  }
  report.notes.push_back("mean messages per estimation: " +
                         human_count(r.messages.mean()) +
                         (is_hs ? " (paper: O(2N))" : ""));
  if (!net.ideal() || !topology.flat()) {
    report.notes.push_back(
        "mean measured delay per estimation: " +
        format_double(r.delay.mean(), 4) +
        " (latency units; wall-clock through the delivery channel)");
  }
  if (!topology.flat()) {
    // The realized embedding (replica #1): what the per-link draws priced.
    std::string census = "peer classes (replica #1):";
    for (std::size_t i = 0; i < topo::kPeerClassCount; ++i) {
      census += std::string(i == 0 ? " " : ", ") +
                std::string(topo::peer_class_name(
                    static_cast<topo::PeerClass>(i))) +
                "=" + std::to_string(outcomes.front().class_census[i]);
    }
    report.notes.push_back(std::move(census));
  }
  report.notes.push_back(
      "stats over " + std::to_string(outcomes.size()) +
      " independent overlay replicas; plotted curves are replica #1");

  report.raw_columns = {"replica", "estimation", "truth",
                        "estimate", "messages",  "valid"};
  for (std::size_t rep = 0; rep < outcomes.size(); ++rep) {
    for (const auto& row : outcomes[rep].raw) {
      report.raw_rows.push_back({static_cast<double>(rep), row[0], row[1],
                                 row[2], row[3], row[4]});
    }
  }
  return report;
}

// --- Figs 5, 6: Aggregation convergence -------------------------------------

FigureReport fig_agg_convergence(const FigureSpec& spec,
                                 const FigureParams& params) {
  const RngStream root(params.seed);
  const std::size_t rounds = params.estimations;  // x-axis: rounds (paper: 100)
  // Paper semantics: the independent estimations all run on the SAME overlay.
  // Build it once; each run gets its own copy so runs can fan out in
  // parallel without sharing a mutable Simulator.
  RngStream graph_rng = root.split("graph");
  obs::Span build_span = obs_span(params, "graph-build");
  const net::Graph graph = build_hetero(params.nodes, graph_rng);
  build_span = obs::Span{};

  est::EstimatorSpec espec = est::EstimatorSpec::parse(spec.estimator);
  espec.set_default("rounds",
                    std::to_string(std::max<std::size_t>(1, rounds)));
  const std::unique_ptr<est::Estimator> proto =
      est::EstimatorRegistry::global().build(espec);

  FigureReport report;
  report.id = "fig_agg_static";
  report.title = "Aggregation: estimation quality vs gossip round";
  const ParallelReplicaRunner pool(params.threads);
  const scenario::RunOptions options =
      replica_options(params, figure_sim_budget(params, pool));
  const sim::NetworkConfig& net = options.network;
  const topo::TopologyConfig& topology = options.topology;
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " rounds=" + std::to_string(rounds) +
                  " runs=" + std::to_string(params.replicas) +
                  " seed=" + std::to_string(params.seed) + net_suffix(net) +
                  topo_suffix(topology) + sizes_suffix(params);
  report.plot = quality_plot("Convergence of Aggregation", "#Round");
  report.plot.y_max = 110.0;

  struct AggRun {
    support::Series series;
    std::size_t converged_at = 0;
    double total_delay = 0.0;  // measured channel delay across all rounds
    std::vector<std::array<double, 5>> raw;  // round,truth,estimate,msgs,valid
  };
  const char glyphs[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const auto runs = pool.map<AggRun>(params.replicas, [&](std::size_t run) {
    // Per-run sim seed: the sim's root stream only feeds the channel, so
    // this keeps runs' loss/latency draws independent without touching the
    // (ideal-channel) byte-identity contract.
    const int lane = static_cast<int>(run) + 1;
    const obs::Span sim_span = obs_span(params, "simulate", lane);
    scenario::Replica replica(options, graph, root, run, lane);
    sim::Simulator& sim = replica.sim();
    const double truth = static_cast<double>(sim.graph().size());
    RngStream pick = root.split("initiator", run);
    RngStream est_rng = root.split("estimator", run);
    const std::unique_ptr<est::Estimator> agg = proto->clone();
    const net::NodeId initiator = sim.graph().random_alive(pick);
    agg->start_epoch(sim, initiator, est_rng);
    AggRun out;
    out.series.name = "Estimation #" + std::to_string(run + 1);
    out.series.glyph = glyphs[run % sizeof glyphs];
    for (std::size_t round = 1; round <= rounds; ++round) {
      const std::uint64_t before = sim.meter().total();
      agg->run_round(sim, est_rng);
      const est::Estimate e = agg->epoch_estimate(sim, initiator);
      const double q = e.valid ? support::quality_percent(e.value, truth) : 0.0;
      out.series.x.push_back(static_cast<double>(round));
      out.series.y.push_back(q);
      out.raw.push_back({static_cast<double>(round), truth, e.value,
                         static_cast<double>(sim.meter().since(before)),
                         e.valid ? 1.0 : 0.0});
      if (out.converged_at == 0 && std::abs(q - 100.0) <= 1.0) {
        out.converged_at = round;
      }
      out.total_delay = e.delay;  // cumulative across the epoch's rounds
    }
    return out;
  });
  const obs::Span merge_span = obs_span(params, "merge");

  for (std::size_t run = 0; run < runs.size(); ++run) {
    report.notes.push_back(
        "run #" + std::to_string(run + 1) + " reaches 99% quality at round " +
        (runs[run].converged_at ? std::to_string(runs[run].converged_at)
                                : "(not reached)"));
    report.series.push_back(runs[run].series);
  }
  report.notes.push_back(
      "paper: converges around round 40 at 1e5 nodes, around 50 at 1e6");
  if ((!net.ideal() || !topology.flat()) && !runs.empty()) {
    report.notes.push_back(
        "measured delay across " + std::to_string(rounds) +
        " rounds (run #1): " + format_double(runs.front().total_delay, 4) +
        " (latency units; wall-clock through the delivery channel)");
  }
  report.raw_columns = {"replica", "round",    "truth",
                        "estimate", "messages", "valid"};
  for (std::size_t run = 0; run < runs.size(); ++run) {
    for (const auto& row : runs[run].raw) {
      report.raw_rows.push_back({static_cast<double>(run), row[0], row[1],
                                 row[2], row[3], row[4]});
    }
  }
  return report;
}

// --- Fig 7: scale-free degree distribution ----------------------------------

FigureReport fig_scale_free_degrees(const FigureSpec&,
                                    const FigureParams& params) {
  // No traffic at all: --net/--topo would be silently ignored.
  (void)unrouted_options(params, "fig_scale_free_degrees");
  const RngStream root(params.seed);
  RngStream graph_rng = root.split("graph");
  obs::Span build_span = obs_span(params, "graph-build");
  const net::Graph graph =
      net::build_barabasi_albert({params.nodes, 3}, graph_rng);
  build_span = obs::Span{};
  // No Simulator here: snapshot the build counters alone.
  if (params.telemetry != nullptr) {
    params.telemetry->add_replica(obs::collect(graph));
  }
  const net::DegreeStats stats = net::degree_stats(graph);
  const auto bins = support::log_binned(stats.histogram);
  const double slope = support::power_law_slope(bins);

  FigureReport report;
  report.id = "fig_scale_free_degrees";
  report.title = "Scale-free degree distribution (Barabasi-Albert, m=3)";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " attach=3 seed=" + std::to_string(params.seed);
  // Paper's axes: x = number of nodes with that degree, y = degree.
  support::Series s{"Scale Free Distribution", {}, {}, '*'};
  for (const auto& [degree, count] : stats.histogram.items()) {
    if (degree == 0) continue;
    s.x.push_back(static_cast<double>(count));
    s.y.push_back(static_cast<double>(degree));
  }
  report.series.push_back(std::move(s));
  report.plot.title = "Scale free degree distribution";
  report.plot.x_label = "Number of nodes";
  report.plot.y_label = "Number of neighbors";
  report.plot.log_x = true;
  report.plot.log_y = true;
  report.notes = {
      "max degree: " + std::to_string(stats.max) + " (paper: 1177)",
      "average degree: " + format_double(stats.mean, 3) + " (paper: ~6)",
      "min degree: " + std::to_string(stats.min) + " (paper: 3 min per node)",
      "log-binned power-law slope: " + format_double(slope, 3) +
          " (BA model predicts ~-3 for the density)",
  };
  return report;
}

// --- Fig 8: the three algorithms on the scale-free graph --------------------

FigureReport fig_scale_free_compare(const FigureSpec&,
                                    const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "fig_scale_free_compare");
  const RngStream root(params.seed);
  scenario::Replica replica(
      options,
      [&params](RngStream& rng) {
        return net::build_barabasi_albert({params.nodes, 3}, rng);
      },
      root);
  sim::Simulator& sim = replica.sim();
  const double truth = static_cast<double>(sim.graph().size());

  FigureReport report;
  report.id = "fig_scale_free_compare";
  report.title = "The 3 algorithms on a scale-free graph";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " S&C l=" + std::to_string(params.sc_collisions) +
                  " Agg rounds=" + std::to_string(params.agg_rounds) +
                  " HS last" + std::to_string(params.last_k) + "runs" +
                  " estimations=" + std::to_string(params.estimations) +
                  " seed=" + std::to_string(params.seed);
  report.plot = quality_plot("Three algorithms, scale-free overlay",
                             "Number of estimations");

  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);

  // Sample&Collide oneShot.
  {
    const est::SampleCollide sc({.timer = params.sc_timer,
                                 .collisions = params.sc_collisions});
    RngStream rng = root.split("sc");
    support::Series s{"Sample&collide", {}, {}, 's'};
    support::RunningStats err;
    for (std::size_t i = 1; i <= params.estimations; ++i) {
      const est::Estimate e = sc.estimate_once(sim, initiator, rng);
      const double q = support::quality_percent(e.value, truth);
      s.x.push_back(static_cast<double>(i));
      s.y.push_back(q);
      err.add(std::abs(q - 100.0));
    }
    report.notes.push_back("Sample&Collide mean |error|: " +
                           format_double(err.mean(), 3) +
                           "% (paper: degree distribution does not bias it)");
    report.series.push_back(std::move(s));
  }
  // HopsSampling lastK.
  {
    const est::HopsSampling hs({});
    RngStream rng = root.split("hs");
    est::LastKAverage smoother(params.last_k);
    support::Series s{"HopsSampling", {}, {}, 'h'};
    support::RunningStats err;
    for (std::size_t i = 1; i <= params.estimations; ++i) {
      const est::HopsSamplingResult res = hs.run_once(sim, initiator, rng);
      const double q =
          support::quality_percent(smoother.add(res.estimate.value), truth);
      s.x.push_back(static_cast<double>(i));
      s.y.push_back(q);
      if (smoother.full()) err.add(q - 100.0);
    }
    report.notes.push_back(
        "HopsSampling mean signed error: " + format_double(err.mean(), 3) +
        "% (paper: under-estimation amplified on scale-free)");
    report.series.push_back(std::move(s));
  }
  // Aggregation: one epoch of agg_rounds per estimation.
  {
    est::Aggregation agg({.rounds_per_epoch = params.agg_rounds});
    RngStream rng = root.split("agg");
    support::Series s{"Aggregation", {}, {}, 'a'};
    support::RunningStats err;
    for (std::size_t i = 1; i <= params.estimations; ++i) {
      const est::Estimate e = agg.run_epoch(sim, initiator, rng);
      const double q =
          e.valid ? support::quality_percent(e.value, truth) : 0.0;
      s.x.push_back(static_cast<double>(i));
      s.y.push_back(q);
      err.add(std::abs(q - 100.0));
    }
    report.notes.push_back("Aggregation mean |error|: " +
                           format_double(err.mean(), 3) +
                           "% (paper: still accurate on scale-free)");
    report.series.push_back(std::move(s));
  }
  return report;
}

// --- dynamic setting (§IV-D): Figs 9-17 and the matrix core -----------------

/// Shared driver for every estimator × workload combination: builds the
/// prototype, fans `params.replicas` deterministic replicas over the
/// unified ScenarioRunner, and assembles the tracking report. The paper
/// figures (9-17) add their exact captions/axes on top; every other
/// combination gets generic labels. `scenario` resolves through
/// workload_by_name, so trace-driven workloads ("trace:weibull,...") run
/// through the identical machinery as the paper scripts. A file trace
/// carries its own initial size, which overrides params.nodes.
FigureReport dynamic_tracking(const est::Estimator& proto,
                              std::string_view scenario,
                              const FigureParams& params,
                              double rounds_per_unit) {
  const std::shared_ptr<const scenario::Dynamics> workload =
      scenario::workload_by_name(scenario, params.nodes);
  const std::size_t nodes = workload->initial_size().value_or(params.nodes);
  const double duration = workload->duration();
  scenario::RunOptions options = replica_options(params);
  const sim::NetworkConfig& net = options.network;
  const topo::TopologyConfig& topology = options.topology;
  if (!net.ideal() && !proto.uses_channel()) {
    throw std::invalid_argument(
        std::string(proto.name()) +
        ": --net has no effect on this estimator (its traffic does not "
        "route through the delivery channel); drop the flag");
  }
  if (!topology.flat() && !proto.uses_channel()) {
    throw std::invalid_argument(
        std::string(proto.name()) +
        ": --topo has no effect on this estimator (its traffic does not "
        "route through the delivery channel); drop the flag");
  }
  const ParallelReplicaRunner pool(params.threads);
  options.estimations = params.estimations;
  options.rounds_per_unit = rounds_per_unit;
  options.sim_workers = figure_sim_budget(params, pool);
  const scenario::ScenarioRunner runner(workload, hetero_factory(nodes),
                                        params.seed);
  const std::size_t replica_count = std::max<std::size_t>(1, params.replicas);
  const auto replicas =
      pool.map<scenario::Series>(replica_count, [&](std::size_t r) {
        return runner.run(proto, options, static_cast<std::uint64_t>(r));
      });
  const obs::Span merge_span = obs_span(params, "merge");

  // Captions/axes always describe the estimator that actually ran — the
  // prototype's config, not FigureParams (a matrix spec override like
  // `sample_collide:l=10` must not be reported as the paper's l=200).
  const std::string_view name = proto.name();
  FigureReport report;
  if (name == "sample_collide") {
    const auto& sc = dynamic_cast<const est::SampleCollideEstimator&>(proto);
    // Paper's x-axis for Figs 9-11 is the estimation index.
    const double per_estimation =
        static_cast<double>(params.estimations) / duration;
    report = dynamic_report(replicas, "Number of estimations", per_estimation);
    report.id = "fig_sc_dynamic";
    report.title = std::string("Sample&Collide oneShot, ") +
                   std::string(kind_label(scenario));
    report.params = "nodes=" + std::to_string(nodes) +
                    " l=" + std::to_string(sc.config().collisions) +
                    " estimations=" + std::to_string(params.estimations) +
                    " replicas=" + std::to_string(params.replicas) +
                    " seed=" + std::to_string(params.seed);
    report.notes = {
        "mean |estimate-truth|/truth: " +
            format_double(100.0 * mean_tracking_error(replicas), 3) +
            "% (paper: reacts well even to brutal changes)",
    };
  } else if (name == "hops_sampling") {
    const auto& hs = dynamic_cast<const est::HopsSamplingEstimator&>(proto);
    report = dynamic_report(replicas, "Time", 1.0);
    report.id = "fig_hs_dynamic";
    report.title = "HopsSampling " +
                   (hs.smooth_last_k() > 0
                        ? "last" + std::to_string(hs.smooth_last_k()) + "runs"
                        : std::string("oneShot")) +
                   ", " + std::string(kind_label(scenario));
    report.params = "nodes=" + std::to_string(nodes) +
                    " estimations=" + std::to_string(params.estimations) +
                    " replicas=" + std::to_string(params.replicas) +
                    " seed=" + std::to_string(params.seed);
    report.notes = {
        "mean |estimate-truth|/truth: " +
            format_double(100.0 * mean_tracking_error(replicas), 3) +
            "% (paper: good behaviour, slight under-estimation, more variance "
            "than Sample&Collide)",
    };
  } else if (name == "aggregation") {
    const auto& agg = dynamic_cast<const est::AggregationEstimator&>(proto);
    report = dynamic_report(replicas, "#Round", rounds_per_unit);
    report.id = "fig_agg_dynamic";
    report.title = std::string("Aggregation (") +
                   std::to_string(agg.config().rounds_per_epoch) +
                   "-round epochs), " + std::string(kind_label(scenario));
    report.params = "nodes=" + std::to_string(nodes) +
                    " rounds_per_epoch=" +
                    std::to_string(agg.config().rounds_per_epoch) +
                    " replicas=" + std::to_string(params.replicas) +
                    " seed=" + std::to_string(params.seed);
    report.notes = {
        "mean |estimate-truth|/truth: " +
            format_double(100.0 * mean_tracking_error(replicas), 3) + "%",
        "paper: adapts to growth; under heavy departures the overlay loses "
        "connectivity and estimates degrade (threshold ~30% departures)",
    };
  } else {
    // Off-paper combination: generic labels derived from the estimator.
    const bool epoch = proto.mode() == est::Estimator::Mode::kEpoch;
    report = dynamic_report(replicas, epoch ? "#Round" : "Time",
                            epoch ? rounds_per_unit : 1.0);
    report.id = "fig_" + std::string(proto.short_name()) + "_dynamic";
    report.title = std::string(proto.display_name()) + " (" +
                   proto.describe() + "), " +
                   std::string(kind_label(scenario));
    report.params =
        "nodes=" + std::to_string(nodes) +
        (epoch ? " rounds_per_unit=" + format_double(rounds_per_unit)
               : " estimations=" + std::to_string(params.estimations)) +
        " replicas=" + std::to_string(replica_count) +
        " seed=" + std::to_string(params.seed);
    report.notes = {
        "mean |estimate-truth|/truth: " +
            format_double(100.0 * mean_tracking_error(replicas), 3) + "%",
        "mean messages per estimate: " +
            human_count(mean_messages(replicas)),
    };
  }
  report.params +=
      net_suffix(net) + topo_suffix(topology) + sizes_suffix(params);
  if (!net.ideal() || !topology.flat()) {
    report.notes.push_back(
        "mean measured delay per estimate: " +
        format_double(mean_delay(replicas), 4) +
        " (latency units; wall-clock through the delivery channel)");
  }
  attach_raw_series(report, replicas);
  return report;
}

FigureReport fig_dynamic_tracking(const FigureSpec& spec,
                                  const FigureParams& params) {
  const std::unique_ptr<est::Estimator> proto =
      est::EstimatorRegistry::global().build(
          spec_with_params(spec.estimator, params, /*smooth_hs=*/true));
  return dynamic_tracking(*proto, spec.scenario, params,
                          /*rounds_per_unit=*/10.0);
}

// --- overheads (§IV-E): Table I ---------------------------------------------

FigureReport table1_overhead(const FigureSpec&, const FigureParams& params) {
  const scenario::RunOptions options = unrouted_options(params, "table1");
  const RngStream root(params.seed);
  scenario::Replica replica(options, hetero_factory(params.nodes), root);
  sim::Simulator& sim = replica.sim();
  // The bytes and max-load columns need the distribution recorder whether
  // or not a telemetry sink is attached. Recording never draws, so the
  // legacy columns are byte-identical to the recorder-less table.
  sim.enable_recorder();
  const double truth = static_cast<double>(sim.graph().size());
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);
  const std::size_t runs = std::max<std::size_t>(params.last_k,
                                                 params.estimations);

  FigureReport report;
  report.id = "table1";
  report.title =
      "Overhead for an estimation on a " + human_count(static_cast<double>(params.nodes)) +
      " node overlay (paper Table I)";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " runs=" + std::to_string(runs) +
                  " seed=" + std::to_string(params.seed) +
                  sizes_suffix(params);
  report.table_columns = {"Algorithm",        "Heuristic",
                          "mean error %",     "mean |error| %",
                          "overhead (msgs)",  "overhead (bytes)",
                          "max node load",    "paper overhead"};

  const auto add_row = [&](const std::string& name, const std::string& mode,
                           const support::RunningStats& signed_err,
                           const support::RunningStats& abs_err, double msgs,
                           double bytes, std::uint64_t max_load,
                           const std::string& paper) {
    report.table_rows.push_back(
        {name, mode, format_double(signed_err.mean(), 3),
         format_double(abs_err.mean(), 3), human_count(msgs),
         human_count(bytes) + "B",
         human_count(static_cast<double>(max_load)), paper});
  };

  // Sample&Collide l=200: oneShot and lastK from the same run sequence.
  {
    const est::SampleCollide sc({.timer = params.sc_timer,
                                 .collisions = params.sc_collisions});
    RngStream rng = root.split("sc");
    est::LastKAverage smoother(params.last_k);
    support::RunningStats one_signed, one_abs, avg_signed, avg_abs, msgs;
    support::RunningStats bytes;
    sim.recorder()->reset_node_loads();
    for (std::size_t i = 0; i < runs; ++i) {
      const std::uint64_t byte_base = sim.meter().total_bytes();
      const est::Estimate e = sc.estimate_once(sim, initiator, rng);
      bytes.add(static_cast<double>(sim.meter().total_bytes() - byte_base));
      const double q = support::quality_percent(e.value, truth) - 100.0;
      one_signed.add(q);
      one_abs.add(std::abs(q));
      const double qa =
          support::quality_percent(smoother.add(e.value), truth) - 100.0;
      if (smoother.full()) {
        avg_signed.add(qa);
        avg_abs.add(std::abs(qa));
      }
      msgs.add(static_cast<double>(e.messages));
    }
    const std::uint64_t max_load = sim.recorder()->max_node_messages();
    add_row("Sample&Collide (l=" + std::to_string(params.sc_collisions) + ")",
            "oneShot", one_signed, one_abs, msgs.mean(), bytes.mean(),
            max_load, "0.5M, +/-10%");
    add_row("Sample&Collide (l=" + std::to_string(params.sc_collisions) + ")",
            "last" + std::to_string(params.last_k) + "runs", avg_signed,
            avg_abs, msgs.mean() * static_cast<double>(params.last_k),
            bytes.mean() * static_cast<double>(params.last_k), max_load,
            "5M, +/-4%");
  }
  // HopsSampling lastK.
  {
    const est::HopsSampling hs({});
    RngStream rng = root.split("hs");
    est::LastKAverage smoother(params.last_k);
    support::RunningStats avg_signed, avg_abs, msgs;
    support::RunningStats bytes;
    sim.recorder()->reset_node_loads();
    for (std::size_t i = 0; i < runs; ++i) {
      const std::uint64_t byte_base = sim.meter().total_bytes();
      const est::HopsSamplingResult res = hs.run_once(sim, initiator, rng);
      bytes.add(static_cast<double>(sim.meter().total_bytes() - byte_base));
      const double qa =
          support::quality_percent(smoother.add(res.estimate.value), truth) -
          100.0;
      if (smoother.full()) {
        avg_signed.add(qa);
        avg_abs.add(std::abs(qa));
      }
      msgs.add(static_cast<double>(res.estimate.messages));
    }
    add_row("HopsSampling", "last" + std::to_string(params.last_k) + "runs",
            avg_signed, avg_abs,
            msgs.mean() * static_cast<double>(params.last_k),
            bytes.mean() * static_cast<double>(params.last_k),
            sim.recorder()->max_node_messages(), "2.5M, -20%");
  }
  // Aggregation, one epoch of agg_rounds.
  {
    est::Aggregation agg({.rounds_per_epoch = params.agg_rounds});
    RngStream rng = root.split("agg");
    support::RunningStats signed_err, abs_err, msgs;
    support::RunningStats bytes;
    sim.recorder()->reset_node_loads();
    const std::size_t agg_runs = std::min<std::size_t>(3, runs);
    for (std::size_t i = 0; i < agg_runs; ++i) {
      const std::uint64_t byte_base = sim.meter().total_bytes();
      const est::Estimate e = agg.run_epoch(sim, initiator, rng);
      bytes.add(static_cast<double>(sim.meter().total_bytes() - byte_base));
      const double q = support::quality_percent(e.value, truth) - 100.0;
      signed_err.add(q);
      abs_err.add(std::abs(q));
      msgs.add(static_cast<double>(e.messages));
    }
    add_row("Aggregation", std::to_string(params.agg_rounds) + " rounds",
            signed_err, abs_err, msgs.mean(), bytes.mean(),
            sim.recorder()->max_node_messages(), "10M, -1%");
  }
  report.notes = {
      "paper ordering: Aggregation (10M) > S&C-l200-last10 (5M) > "
      "HopsSampling-last10 (2.5M) > S&C-l200-oneShot (0.5M)",
      "accuracy ordering: Aggregation ~exact; S&C last10 few %; S&C oneShot "
      "~10%; HopsSampling under-estimates ~20%",
  };
  return report;
}

// --- ablations beyond the paper's figures (§V claims) -----------------------

FigureReport ablation_sc_l_sweep(const FigureSpec&,
                                 const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_sc_l_sweep");
  const RngStream root(params.seed);
  RngStream graph_rng = root.split("graph");
  const net::Graph graph = build_hetero(params.nodes, graph_rng);
  const double truth = static_cast<double>(graph.size());
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = graph.random_alive(pick);

  FigureReport report;
  report.id = "ablation_sc_l_sweep";
  report.title = "Sample&Collide accuracy/overhead trade-off vs l";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " T=" + format_double(params.sc_timer) +
                  " runs/l=" + std::to_string(params.estimations) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"l", "mean |error| %", "mean msgs/estimation",
                          "cost ratio vs l=10"};
  const std::vector<std::uint32_t> l_values = {10, 50, 100, 200};

  // Grid fan-out: every l gets its own copy of the overlay (same wiring,
  // same initiator) and its own seed-derived stream, so results match the
  // sequential sweep exactly at any thread count.
  struct SweepCell {
    support::RunningStats err, msgs;
  };
  const ParallelReplicaRunner pool(params.threads);
  const auto cells = pool.map<SweepCell>(l_values.size(), [&](std::size_t i) {
    const std::uint32_t l = l_values[i];
    scenario::Replica replica(options, graph, root);
    sim::Simulator& sim = replica.sim();
    const est::SampleCollide sc({.timer = params.sc_timer, .collisions = l});
    RngStream rng = root.split("sc", l);
    SweepCell cell;
    for (std::size_t run = 0; run < params.estimations; ++run) {
      const est::Estimate e = sc.estimate_once(sim, initiator, rng);
      cell.err.add(std::abs(support::quality_percent(e.value, truth) - 100.0));
      cell.msgs.add(static_cast<double>(e.messages));
    }
    return cell;
  });
  const double base_cost = cells.front().msgs.mean();
  for (std::size_t i = 0; i < l_values.size(); ++i) {
    report.table_rows.push_back(
        {std::to_string(l_values[i]), format_double(cells[i].err.mean(), 3),
         human_count(cells[i].msgs.mean()),
         format_double(base_cost > 0 ? cells[i].msgs.mean() / base_cost : 0.0,
                       3)});
  }
  report.notes = {
      "paper: l=100 costs 3.27x the cost of l=10; l=200 costs 1.40x l=100",
      "expected sqrt scaling: cost ~ sqrt(2*l*N) + per-sample walk cost",
  };
  return report;
}

FigureReport ablation_sc_timer_sweep(const FigureSpec&,
                                     const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_sc_timer_sweep");
  const RngStream root(params.seed);
  RngStream graph_rng = root.split("graph");
  const net::Graph graph = build_hetero(params.nodes, graph_rng);
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = graph.random_alive(pick);
  const std::size_t n = graph.size();
  const std::size_t samples = 30 * n;

  FigureReport report;
  report.id = "ablation_sc_timer_sweep";
  report.title = "T-walk sampler uniformity vs timer budget T";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " samples/T=" + std::to_string(samples) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"T", "chi2/df (1.0 = uniform)", "mean walk steps"};
  const std::vector<double> timers = {0.5, 1.0, 2.0, 5.0, 10.0};

  struct TimerCell {
    double chi2_per_df = 0.0;
    support::RunningStats steps;
  };
  const ParallelReplicaRunner pool(params.threads);
  const auto cells = pool.map<TimerCell>(timers.size(), [&](std::size_t i) {
    const double timer = timers[i];
    scenario::Replica replica(options, graph, root);
    sim::Simulator& sim = replica.sim();
    const est::SampleCollide sc({.timer = timer, .collisions = 1});
    RngStream rng = root.split("walk", static_cast<std::uint64_t>(timer * 100));
    std::vector<std::uint64_t> counts(sim.graph().slot_count(), 0);
    TimerCell cell;
    for (std::size_t s = 0; s < samples; ++s) {
      const est::WalkSample ws = sc.sample(sim, initiator, rng);
      ++counts[ws.node];
      cell.steps.add(static_cast<double>(ws.steps));
    }
    cell.chi2_per_df =
        support::chi_square_uniform(counts) / static_cast<double>(n - 1);
    return cell;
  });
  for (std::size_t i = 0; i < timers.size(); ++i) {
    report.table_rows.push_back({format_double(timers[i], 3),
                                 format_double(cells[i].chi2_per_df, 4),
                                 format_double(cells[i].steps.mean(), 4)});
  }
  report.notes = {
      "chi2/df -> 1 as T grows: the walk becomes an unbiased uniform sampler",
      "paper uses T=10, 'sufficient for an accurate sampling'",
  };
  return report;
}

FigureReport ablation_hs_oracle(const FigureSpec&,
                                const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_hs_oracle");
  const RngStream root(params.seed);
  scenario::Replica replica(options, hetero_factory(params.nodes), root);
  sim::Simulator& sim = replica.sim();
  const double truth = static_cast<double>(sim.graph().size());
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);

  FigureReport report;
  report.id = "ablation_hs_oracle";
  report.title = "HopsSampling: gossip distances vs oracle BFS distances";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " runs=" + std::to_string(params.estimations) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"variant", "mean error %", "mean |error| %",
                          "mean coverage %"};
  for (const bool oracle : {false, true}) {
    est::HopsSamplingConfig config;
    config.oracle_distances = oracle;
    const est::HopsSampling hs(config);
    RngStream rng = root.split(oracle ? "oracle" : "gossip");
    support::RunningStats signed_err, abs_err, coverage;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const est::HopsSamplingResult res = hs.run_once(sim, initiator, rng);
      const double q =
          support::quality_percent(res.estimate.value, truth) - 100.0;
      signed_err.add(q);
      abs_err.add(std::abs(q));
      coverage.add(100.0 * static_cast<double>(res.reached) / truth);
    }
    report.table_rows.push_back({oracle ? "oracle BFS" : "gossip spread",
                                 format_double(signed_err.mean(), 3),
                                 format_double(abs_err.mean(), 3),
                                 format_double(coverage.mean(), 4)});
  }
  report.notes = {
      "paper §V: with accurate distances the estimate is correct — the "
      "under-estimation comes from the spread phase (partial reach, "
      "inaccurate distances), ~11% of nodes unreached at 1e5",
  };
  return report;
}

FigureReport ablation_estimators(const FigureSpec&,
                                 const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_estimators");
  const RngStream root(params.seed);
  scenario::Replica replica(options, hetero_factory(params.nodes), root);
  sim::Simulator& sim = replica.sim();
  const double truth = static_cast<double>(sim.graph().size());
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);

  FigureReport report;
  report.id = "ablation_estimators";
  report.title = "Collision estimator: quadratic (C^2/2l) vs maximum likelihood";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " l=" + std::to_string(params.sc_collisions) +
                  " runs=" + std::to_string(params.estimations) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"estimator", "mean error %", "stddev %",
                          "mean |error| %"};
  for (const auto kind : {est::CollisionEstimator::kQuadratic,
                          est::CollisionEstimator::kMaximumLikelihood}) {
    const est::SampleCollide sc({.timer = params.sc_timer,
                                 .collisions = params.sc_collisions,
                                 .estimator = kind});
    RngStream rng = root.split("runs");  // same stream: same samples
    support::RunningStats signed_err, abs_err;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const est::Estimate e = sc.estimate_once(sim, initiator, rng);
      const double q = support::quality_percent(e.value, truth) - 100.0;
      signed_err.add(q);
      abs_err.add(std::abs(q));
    }
    report.table_rows.push_back(
        {kind == est::CollisionEstimator::kQuadratic ? "quadratic" : "MLE",
         format_double(signed_err.mean(), 3),
         format_double(signed_err.stddev(), 3),
         format_double(abs_err.mean(), 3)});
  }
  report.notes = {
      "identical RNG stream per variant: differences are purely the "
      "estimator formula",
  };
  return report;
}

FigureReport ablation_homogeneous(const FigureSpec&,
                                  const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_homogeneous");
  const RngStream root(params.seed);

  FigureReport report;
  report.id = "ablation_homogeneous";
  report.title = "Heterogeneous vs homogeneous overlays";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " runs=" + std::to_string(params.estimations) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"overlay", "algorithm", "mean |error| %"};

  for (const bool homogeneous : {false, true}) {
    RngStream graph_rng = root.split(homogeneous ? "homo" : "hetero");
    net::Graph graph =
        homogeneous
            ? net::build_homogeneous_random({params.nodes, 7}, graph_rng)
            : build_hetero(params.nodes, graph_rng);
    scenario::Replica replica(options, std::move(graph), root);
    sim::Simulator& sim = replica.sim();
    const double truth = static_cast<double>(sim.graph().size());
    RngStream pick = root.split("initiator");
    const net::NodeId initiator = sim.graph().random_alive(pick);
    const std::string overlay = homogeneous ? "homogeneous d=7" : "heterogeneous";

    {
      const est::SampleCollide sc({.timer = params.sc_timer,
                                   .collisions = params.sc_collisions});
      RngStream rng = root.split("sc");
      support::RunningStats err;
      for (std::size_t i = 0; i < params.estimations; ++i) {
        const est::Estimate e = sc.estimate_once(sim, initiator, rng);
        err.add(std::abs(support::quality_percent(e.value, truth) - 100.0));
      }
      report.table_rows.push_back(
          {overlay, "Sample&Collide", format_double(err.mean(), 3)});
    }
    {
      const est::HopsSampling hs({});
      RngStream rng = root.split("hs");
      support::RunningStats err;
      for (std::size_t i = 0; i < params.estimations; ++i) {
        const est::HopsSamplingResult res = hs.run_once(sim, initiator, rng);
        err.add(std::abs(
            support::quality_percent(res.estimate.value, truth) - 100.0));
      }
      report.table_rows.push_back(
          {overlay, "HopsSampling", format_double(err.mean(), 3)});
    }
    {
      est::Aggregation agg({.rounds_per_epoch = params.agg_rounds});
      RngStream rng = root.split("agg");
      const est::Estimate e = agg.run_epoch(sim, initiator, rng);
      report.table_rows.push_back(
          {overlay, "Aggregation",
           format_double(
               std::abs(support::quality_percent(e.value, truth) - 100.0), 3)});
    }
  }
  report.notes = {
      "paper: homogeneous graphs 'consistently improved all algorithms'; the "
      "heterogeneous setting is the worst case the paper reports",
  };
  return report;
}

FigureReport ablation_baselines(const FigureSpec&,
                                const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_baselines");
  const RngStream root(params.seed);

  FigureReport report;
  report.id = "ablation_baselines";
  report.title =
      "Random-walk baselines: Sample&Collide vs Random Tour vs naive "
      "Inverted Birthday Paradox";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " runs=" + std::to_string(params.estimations) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"graph",         "algorithm",      "mean error %",
                          "mean |error| %", "mean msgs/run"};

  const auto run_graph = [&](const std::string& label, net::Graph graph) {
    scenario::Replica replica(options, std::move(graph), root);
    sim::Simulator& sim = replica.sim();
    const double truth = static_cast<double>(sim.graph().size());
    RngStream pick = root.split("initiator");
    const net::NodeId initiator = sim.graph().random_alive(pick);

    const auto record = [&](const std::string& algo,
                            const scenario::PointEstimator& estimator,
                            RngStream rng) {
      support::RunningStats signed_err, abs_err, msgs;
      for (std::size_t i = 0; i < params.estimations; ++i) {
        const est::Estimate e = estimator(sim, initiator, rng);
        if (!e.valid) continue;
        const double q = support::quality_percent(e.value, truth) - 100.0;
        signed_err.add(q);
        abs_err.add(std::abs(q));
        msgs.add(static_cast<double>(e.messages));
      }
      report.table_rows.push_back(
          {label, algo, format_double(signed_err.mean(), 3),
           format_double(abs_err.mean(), 3), human_count(msgs.mean())});
    };

    const est::SampleCollide sc({.timer = params.sc_timer, .collisions = 10});
    record("Sample&Collide (l=10)",
           [&sc](sim::Simulator& s, net::NodeId i, RngStream& r) {
             return sc.estimate_once(s, i, r);
           },
           root.split("sc"));
    const est::RandomTour tour;
    record("Random Tour",
           [&tour](sim::Simulator& s, net::NodeId i, RngStream& r) {
             return tour.estimate_once(s, i, r);
           },
           root.split("tour"));
    const est::InvertedBirthday ibp({.walk_length = 30, .collisions = 10});
    record("Inverted Birthday (biased sampler, l=10)",
           [&ibp](sim::Simulator& s, net::NodeId i, RngStream& r) {
             return ibp.estimate_once(s, i, r);
           },
           root.split("ibp"));
  };

  {
    RngStream rng = root.split("hetero_graph");
    run_graph("heterogeneous", build_hetero(params.nodes, rng));
  }
  {
    RngStream rng = root.split("ba_graph");
    run_graph("scale-free", net::build_barabasi_albert({params.nodes, 3}, rng));
  }
  report.notes = {
      "Random Tour is unbiased but its per-run cost scales with |E|/deg(i) "
      "(paper §II: 'much lower' overhead for Sample&Collide)",
      "the naive fixed-length-walk sampler over-samples high-degree nodes, "
      "deflating estimates on the scale-free graph (motivates the T-walk)",
  };
  return report;
}

FigureReport ablation_cyclon_healing(const FigureSpec&,
                                     const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_cyclon");
  const RngStream root(params.seed);

  FigureReport report;
  report.id = "ablation_cyclon_healing";
  report.title =
      "No-healing static wiring vs CYCLON-maintained overlay under heavy "
      "departures";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " departures=50% seed=" + std::to_string(params.seed);
  report.table_columns = {"overlay", "largest component %", "components",
                          "Aggregation |error| %"};

  const auto measure = [&](const std::string& label, net::Graph graph) {
    const double truth = static_cast<double>(graph.size());
    const net::ComponentInfo info = net::connected_components(graph);
    const double largest =
        100.0 * static_cast<double>(info.largest_size()) / truth;
    scenario::Replica replica(options, std::move(graph), root);
    sim::Simulator& sim = replica.sim();
    est::Aggregation agg({.rounds_per_epoch = params.agg_rounds});
    RngStream rng = root.split("agg");
    RngStream pick = root.split("pick");
    const est::Estimate e =
        agg.run_epoch(sim, sim.graph().random_alive(pick), rng);
    const double err =
        e.valid ? std::abs(support::quality_percent(e.value, truth) - 100.0)
                : 100.0;
    report.table_rows.push_back({label, format_double(largest, 4),
                                 std::to_string(info.count()),
                                 format_double(err, 3)});
  };

  // Static wiring: build, then remove half with no healing (§IV-A rule).
  {
    RngStream graph_rng = root.split("static_graph");
    net::Graph g = build_hetero(params.nodes, graph_rng);
    RngStream churn = root.split("churn");
    net::remove_fraction(g, 0.5, churn);
    measure("static wiring (no healing)", std::move(g));
  }
  // CYCLON: same departures, then a few shuffle rounds repair the views.
  {
    net::CyclonOverlay overlay(params.nodes, {10, 4}, root.split("cyclon"));
    for (int round = 0; round < 10; ++round) overlay.run_round();
    RngStream kill = root.split("kill");
    std::size_t removed = 0;
    const std::size_t target = params.nodes / 2;
    while (removed < target) {
      const auto victim =
          static_cast<std::uint32_t>(kill.uniform_u64(params.nodes));
      if (overlay.view_of(victim).empty() && overlay.size() == 0) break;
      const std::size_t before = overlay.size();
      overlay.remove_member(victim);
      removed += before - overlay.size();
    }
    for (int round = 0; round < 10; ++round) overlay.run_round();
    measure("CYCLON-maintained (healed)", overlay.materialize());
  }
  report.notes = {
      "the paper's failure mode for gossip algorithms is overlay "
      "fragmentation; membership maintenance (CYCLON [19]) removes it",
  };
  return report;
}

FigureReport ablation_delay(const FigureSpec&, const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_delay");
  const RngStream root(params.seed);
  scenario::Replica replica(options, hetero_factory(params.nodes), root);
  sim::Simulator& sim = replica.sim();
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);
  const double truth = static_cast<double>(sim.graph().size());

  FigureReport report;
  report.id = "ablation_delay";
  report.title =
      "Estimation delay under a unit per-hop latency (paper §V conjecture)";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " hop_latency=1 agg_period=2 hops seed=" +
                  std::to_string(params.seed);
  report.table_columns = {"algorithm", "delay (hop units)", "messages",
                          "estimate quality %"};
  const est::DelayConfig config{
      .hop_latency = sim::LatencyModel::constant(1.0),
      .aggregation_period_hops = 2.0};

  {
    const est::HopsSampling hs({});
    RngStream rng = root.split("hs");
    const est::DelayBreakdown d =
        est::hops_sampling_delay(sim, hs, initiator, config, rng);
    report.table_rows.push_back(
        {"HopsSampling", format_double(d.total, 4), human_count(
             static_cast<double>(d.messages)),
         format_double(support::quality_percent(d.estimate, truth), 4)});
  }
  {
    est::Aggregation agg({.rounds_per_epoch = params.agg_rounds});
    RngStream rng = root.split("agg");
    const est::DelayBreakdown d =
        est::aggregation_delay(sim, agg, initiator, config, rng);
    report.table_rows.push_back(
        {"Aggregation (" + std::to_string(params.agg_rounds) + " rounds)",
         format_double(d.total, 4),
         human_count(static_cast<double>(d.messages)),
         format_double(support::quality_percent(d.estimate, truth), 4)});
  }
  {
    const est::SampleCollide sc({.timer = params.sc_timer,
                                 .collisions = params.sc_collisions});
    RngStream rng = root.split("sc");
    const est::DelayBreakdown d =
        est::sample_collide_delay(sim, sc, initiator, config, rng);
    report.table_rows.push_back(
        {"Sample&Collide (l=" + std::to_string(params.sc_collisions) + ")",
         format_double(d.total, 4),
         human_count(static_cast<double>(d.messages)),
         format_double(support::quality_percent(d.estimate, truth), 4)});
  }
  report.notes = {
      "paper §V: 'HopsSampling probably outperforms the other algorithms in "
      "terms of delay' — a parallel spread beats 50 synchronized rounds and, "
      "by orders of magnitude, sequential sampling",
  };
  return report;
}

FigureReport ablation_structured(const FigureSpec&,
                                 const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_structured");
  const RngStream root(params.seed);
  scenario::Replica replica(options, hetero_factory(params.nodes), root);
  sim::Simulator& sim = replica.sim();
  const double truth = static_cast<double>(sim.graph().size());
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);

  FigureReport report;
  report.id = "ablation_structured";
  report.title =
      "Identifier-based interval density vs the generic schemes (cost of "
      "generality)";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " runs=" + std::to_string(params.estimations) +
                  " leafset=16 seed=" + std::to_string(params.seed);
  report.table_columns = {"algorithm", "applicability", "mean |error| %",
                          "mean msgs/run"};

  const auto add = [&](const std::string& name, const std::string& scope,
                       const support::RunningStats& err, double msgs) {
    report.table_rows.push_back({name, scope, format_double(err.mean(), 3),
                                 human_count(msgs)});
  };
  {
    RngStream ids_rng = root.split("ids");
    const est::IdentifierSpace ids(sim.graph(), ids_rng);
    const est::IntervalDensity density({.leafset = 16});
    RngStream rng = root.split("density");
    support::RunningStats err, msgs;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const est::Estimate e =
          density.estimate_once(sim, ids, sim.graph().random_alive(rng));
      err.add(std::abs(support::quality_percent(e.value, truth) - 100.0));
      msgs.add(static_cast<double>(e.messages));
    }
    add("Interval density (k=16)", "structured overlays only", err,
        msgs.mean());
  }
  {
    const est::SampleCollide sc({.timer = params.sc_timer,
                                 .collisions = params.sc_collisions});
    RngStream rng = root.split("sc");
    support::RunningStats err, msgs;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const est::Estimate e = sc.estimate_once(sim, initiator, rng);
      err.add(std::abs(support::quality_percent(e.value, truth) - 100.0));
      msgs.add(static_cast<double>(e.messages));
    }
    add("Sample&Collide (l=" + std::to_string(params.sc_collisions) + ")",
        "any overlay", err, msgs.mean());
  }
  {
    const est::HopsSampling hs({});
    RngStream rng = root.split("hs");
    support::RunningStats err, msgs;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const est::HopsSamplingResult r = hs.run_once(sim, initiator, rng);
      err.add(
          std::abs(support::quality_percent(r.estimate.value, truth) - 100.0));
      msgs.add(static_cast<double>(r.estimate.messages));
    }
    add("HopsSampling", "any overlay", err, msgs.mean());
  }
  report.notes = {
      "with uniformly assigned identifiers the leafset density estimate is "
      "nearly free and very accurate — but it simply does not exist on "
      "unstructured overlays, which is the paper's §I scoping argument",
  };
  return report;
}

FigureReport ablation_polling(const FigureSpec&, const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_polling");
  const RngStream root(params.seed);
  scenario::Replica replica(options, hetero_factory(params.nodes), root);
  sim::Simulator& sim = replica.sim();
  const double truth = static_cast<double>(sim.graph().size());
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);

  FigureReport report;
  report.id = "ablation_polling";
  report.title =
      "Polling class: flat reply probability [2],[6] vs HopsSampling's "
      "distance-graded schedule";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " runs=" + std::to_string(params.estimations) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"variant", "mean error %", "mean |error| %",
                          "mean replies", "mean msgs/run"};

  const auto add = [&](const std::string& name,
                       const support::RunningStats& signed_err,
                       const support::RunningStats& abs_err, double replies,
                       double msgs) {
    report.table_rows.push_back(
        {name, format_double(signed_err.mean(), 3),
         format_double(abs_err.mean(), 3), format_double(replies, 5),
         human_count(msgs)});
  };
  for (const double p : {0.01, 0.05, 0.25}) {
    const est::FlatPolling poll({.reply_probability = p});
    RngStream rng = root.split("flat", static_cast<std::uint64_t>(p * 1000));
    support::RunningStats signed_err, abs_err, replies, msgs;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const est::FlatPollingResult r = poll.run_once(sim, initiator, rng);
      const double q =
          support::quality_percent(r.estimate.value, truth) - 100.0;
      signed_err.add(q);
      abs_err.add(std::abs(q));
      replies.add(static_cast<double>(r.replies));
      msgs.add(static_cast<double>(r.estimate.messages));
    }
    add("flat polling p=" + format_double(p, 3), signed_err, abs_err,
        replies.mean(), msgs.mean());
  }
  {
    const est::HopsSampling hs({});
    RngStream rng = root.split("hs");
    support::RunningStats signed_err, abs_err, replies, msgs;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const est::HopsSamplingResult r = hs.run_once(sim, initiator, rng);
      const double q =
          support::quality_percent(r.estimate.value, truth) - 100.0;
      signed_err.add(q);
      abs_err.add(std::abs(q));
      replies.add(static_cast<double>(r.replies));
      msgs.add(static_cast<double>(r.estimate.messages));
    }
    add("HopsSampling (graded)", signed_err, abs_err, replies.mean(),
        msgs.mean());
  }
  report.notes = {
      "flat polling floods replies toward the initiator (the hot-spot the "
      "paper's §V warns about); the graded schedule caps replies at the "
      "price of extrapolation variance and spread-coverage bias",
  };
  return report;
}

FigureReport ablation_samplers(const FigureSpec&,
                               const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_samplers");
  const RngStream root(params.seed);
  scenario::Replica replica(options, hetero_factory(params.nodes), root);
  sim::Simulator& sim = replica.sim();
  const std::size_t n = sim.graph().size();
  const std::size_t samples = 30 * n;
  RngStream pick = root.split("initiator");
  const net::NodeId initiator = sim.graph().random_alive(pick);

  FigureReport report;
  report.id = "ablation_samplers";
  report.title =
      "Uniform-sampling back-ends: T-walk vs Metropolis-Hastings vs naive "
      "fixed-length walk";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " samples/variant=" + std::to_string(samples) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"sampler", "chi2/df (1 = uniform)",
                          "mean msgs/sample"};
  const double df = static_cast<double>(n - 1);

  const auto add = [&](const std::string& name, auto&& draw) {
    std::vector<std::uint64_t> counts(sim.graph().slot_count(), 0);
    const std::uint64_t before = sim.meter().total();
    for (std::size_t i = 0; i < samples; ++i) ++counts[draw()];
    const double msgs = static_cast<double>(sim.meter().since(before)) /
                        static_cast<double>(samples);
    report.table_rows.push_back(
        {name, format_double(support::chi_square_uniform(counts) / df, 4),
         format_double(msgs, 4)});
  };

  {
    const est::SampleCollide sc({.timer = params.sc_timer, .collisions = 1});
    RngStream rng = root.split("twalk");
    add("T-walk (T=" + format_double(params.sc_timer, 3) + ")",
        [&] { return sc.sample(sim, initiator, rng).node; });
  }
  {
    RngStream rng = root.split("mh");
    const std::uint64_t hops = 80;
    add("Metropolis-Hastings (" + std::to_string(hops) + " hops)", [&] {
      return net::metropolis_hastings_walk(sim, initiator, hops, rng);
    });
  }
  {
    RngStream rng = root.split("simple");
    const std::uint64_t hops = 80;
    add("simple walk (" + std::to_string(hops) + " hops, biased)", [&] {
      return net::simple_walk(sim, initiator, hops, rng);
    });
  }
  report.notes = {
      "both the T-walk and Metropolis-Hastings converge to uniform; the "
      "plain walk's stationary law is proportional to degree and never "
      "uniformizes (the bias [15] fixes)",
  };
  return report;
}

FigureReport ablation_oscillating(const FigureSpec&,
                                  const FigureParams& params) {
  scenario::RunOptions options = replica_options(params);
  const sim::NetworkConfig& net = options.network;
  const topo::TopologyConfig& topology = options.topology;
  const scenario::ScenarioRunner runner(
      scenario::oscillating_script(params.nodes, 4, 0.25),
      hetero_factory(params.nodes), params.seed);

  // Both candidates through the unified interface: one atomic, one epoched.
  const est::SampleCollideEstimator sc({.timer = params.sc_timer,
                                        .collisions = params.sc_collisions});
  options.estimations = params.estimations;
  const scenario::Series sc_series = runner.run(sc, options, 0);
  const est::AggregationEstimator agg({.rounds_per_epoch = params.agg_rounds});
  options.estimations = 0;
  options.rounds_per_unit = 1.0;
  const scenario::Series agg_series = runner.run(agg, options, 0);

  FigureReport report;
  report.id = "ablation_oscillating";
  report.title =
      "Flash-crowd oscillation (+/-25% x4): Sample&Collide vs Aggregation "
      "tracking";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " l=" + std::to_string(params.sc_collisions) +
                  " agg_rounds=" + std::to_string(params.agg_rounds) +
                  " seed=" + std::to_string(params.seed) + net_suffix(net) +
                  topo_suffix(topology) + sizes_suffix(params);
  report.plot.x_label = "Time";
  report.plot.y_label = "Size";
  report.plot.height = 18;

  support::Series truth{"Real network size", {}, {}, '.'};
  support::Series sc_line{"Sample&Collide oneShot", {}, {}, 's'};
  support::Series agg_line{"Aggregation epochs", {}, {}, 'a'};
  support::RunningStats sc_err, agg_err;
  for (const auto& p : sc_series) {
    truth.x.push_back(p.time);
    truth.y.push_back(p.truth);
    if (!p.valid) continue;
    sc_line.x.push_back(p.time);
    sc_line.y.push_back(p.estimate);
    if (p.truth > 0) sc_err.add(std::abs(p.estimate - p.truth) / p.truth);
  }
  for (const auto& p : agg_series) {
    if (!p.valid) continue;
    agg_line.x.push_back(p.time);
    agg_line.y.push_back(p.estimate);
    if (p.truth > 0) agg_err.add(std::abs(p.estimate - p.truth) / p.truth);
  }
  report.series = {truth, sc_line, agg_line};
  report.notes = {
      "Sample&Collide mean tracking error: " +
          format_double(100.0 * sc_err.mean(), 3) + "%",
      "Aggregation mean tracking error:    " +
          format_double(100.0 * agg_err.mean(), 3) +
          "% (each epoch reports the size ~" +
          std::to_string(params.agg_rounds) +
          " rounds after its snapshot; reversals double the lag penalty)",
      "extension beyond the paper's monotone scenarios; the moderate churn "
      "keeps the overlay connected, so Aggregation degrades by lag only",
  };
  attach_raw_series(report, {sc_series, agg_series});
  return report;
}

// --- unreliable delivery (extension: the paper's §IV-A "future work") -------

/// One (estimator, loss) cell of a loss sweep.
struct LossCell {
  support::RunningStats abs_err;     ///< |quality - 100|
  support::RunningStats signed_err;  ///< quality - 100
  support::RunningStats msgs;
  support::RunningStats delay;
  std::size_t invalid = 0;
};

struct LossCandidate {
  std::string_view label;
  std::string_view spec;
};

/// The protocols ported to the delivery channel, in comparison order.
constexpr LossCandidate kLossCandidates[] = {
    {"Sample&Collide", "sample_collide"},
    {"HopsSampling", "hops_sampling"},
    {"Random Tour", "random_tour"},
    {"Flat Polling", "flat_polling:p=0.05"},
    {"Aggregation", "aggregation"},
};
constexpr double kLossRates[] = {0.0, 0.05, 0.2};

/// One column of a channel sweep: the delivery layer and the topology every
/// candidate runs under in that column.
struct SweepColumn {
  std::string label;
  sim::NetworkConfig network;
  topo::TopologyConfig topology;
};

LossCell run_loss_cell(const net::Graph& graph, const FigureParams& params,
                       std::string_view spec_text, const SweepColumn& column,
                       const RngStream& root, std::uint64_t candidate) {
  const std::unique_ptr<est::Estimator> estimator =
      est::EstimatorRegistry::global().build(
          spec_with_params(spec_text, params, /*smooth_hs=*/false));
  // Streams are split per CANDIDATE, not per (candidate, loss) cell: every
  // loss rate sees the same initiator and the same estimator randomness, so
  // column differences isolate the channel's effect (a hop-reliable walk
  // protocol reports the identical estimate at every loss rate).
  scenario::RunOptions options = replica_options(params);
  options.network = column.network;
  options.topology = column.topology;
  scenario::Replica replica(options, graph, root, candidate);
  sim::Simulator& sim = replica.sim();
  RngStream pick = root.split("initiator", candidate);
  RngStream est_rng = root.split("estimator", candidate);
  const net::NodeId initiator = sim.graph().random_alive(pick);
  const double truth = static_cast<double>(sim.graph().size());

  LossCell out;
  const auto record = [&](const est::Estimate& e) {
    if (!e.valid) {
      ++out.invalid;
      return;
    }
    const double q = support::quality_percent(e.value, truth) - 100.0;
    out.abs_err.add(std::abs(q));
    out.signed_err.add(q);
    out.msgs.add(static_cast<double>(e.messages));
    out.delay.add(e.delay);
  };
  if (estimator->mode() == est::Estimator::Mode::kPoint) {
    for (std::size_t i = 0; i < params.estimations; ++i) {
      record(estimator->estimate_point(sim, initiator, est_rng));
    }
  } else {
    // Epoch mode: full epochs are expensive; 3 suffice for a table row.
    const std::size_t epochs =
        std::max<std::size_t>(1, std::min<std::size_t>(3, params.estimations));
    for (std::size_t i = 0; i < epochs; ++i) {
      const std::uint64_t before = sim.meter().total();
      estimator->start_epoch(sim, initiator, est_rng);
      for (std::uint32_t r = 0; r < estimator->rounds_per_epoch(); ++r) {
        estimator->run_round(sim, est_rng);
      }
      est::Estimate e = estimator->epoch_estimate(sim, initiator);
      e.messages = sim.meter().since(before);
      record(e);
    }
  }
  return out;
}

/// Shared body of the loss and topology sweeps: every ported protocol
/// crossed with every column, each cell on its own copy of one shared
/// overlay with seed-split streams (byte-identical at any thread count).
/// `axis` heads the column-label column; `params_extra` joins the params
/// line ahead of the channel's timeout.
FigureReport channel_sweep_report(const FigureParams& params,
                                  const std::vector<SweepColumn>& columns,
                                  std::string id, std::string title,
                                  std::string axis,
                                  const std::string& params_extra) {
  const RngStream root(params.seed);
  RngStream graph_rng = root.split("graph");
  const net::Graph graph = build_hetero(params.nodes, graph_rng);
  const std::size_t n_candidates = std::size(kLossCandidates);
  const std::size_t n_columns = columns.size();

  const ParallelReplicaRunner pool(params.threads);
  const auto cells =
      pool.map<LossCell>(n_candidates * n_columns, [&](std::size_t i) {
        return run_loss_cell(graph, params, kLossCandidates[i / n_columns].spec,
                             columns[i % n_columns], root,
                             static_cast<std::uint64_t>(i / n_columns));
      });

  FigureReport report;
  report.id = std::move(id);
  report.title = std::move(title);
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " runs/cell=" + std::to_string(params.estimations) +
                  " epoch-runs/cell=" +
                  std::to_string(std::max<std::size_t>(
                      1, std::min<std::size_t>(3, params.estimations))) +
                  params_extra +
                  " timeout=" + format_double(sim::NetworkConfig{}.timeout) +
                  " retries=" + std::to_string(sim::NetworkConfig{}.retries) +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = {"algorithm",      std::move(axis), "mean error %",
                          "mean |error| %", "invalid",       "mean msgs",
                          "mean delay"};
  for (std::size_t c = 0; c < n_candidates; ++c) {
    for (std::size_t v = 0; v < n_columns; ++v) {
      const LossCell& cell = cells[c * n_columns + v];
      report.table_rows.push_back(
          {std::string(kLossCandidates[c].label), columns[v].label,
           format_double(cell.signed_err.mean(), 3),
           format_double(cell.abs_err.mean(), 3),
           std::to_string(cell.invalid), human_count(cell.msgs.mean()),
           format_double(cell.delay.mean(), 4)});
    }
  }
  return report;
}

/// The loss sweep: kLossRates under one latency model.
FigureReport ext_loss_report(const FigureParams& params,
                             const sim::LatencyModel& latency,
                             std::string id, std::string title) {
  if (!params.net.empty()) {
    throw std::invalid_argument(
        id + ": --net conflicts with this figure's own loss sweep "
             "(the sweep fixes the channel per cell); drop the flag");
  }
  (void)unrouted_options(params, id);  // rejects --topo
  std::vector<SweepColumn> columns;
  for (const double loss : kLossRates) {
    sim::NetworkConfig net;
    net.loss = loss;
    net.latency = latency;
    columns.push_back({format_double(loss, 3), net, {}});
  }
  return channel_sweep_report(params, columns, std::move(id), std::move(title),
                              "loss", " latency=" + latency.describe());
}

FigureReport ext_loss_accuracy(const FigureSpec&, const FigureParams& params) {
  FigureReport report = ext_loss_report(
      params, sim::LatencyModel::constant(1.0), "ext_loss_accuracy",
      "Estimator accuracy under unreliable delivery (loss 0 / 5% / 20%)");
  report.notes = {
      "polls degrade most: dropped spreads shrink coverage and dropped "
      "replies deepen the under-estimation the paper already observes",
      "walk protocols survive via per-hop ARQ (S&C) or hop-reliable "
      "forwarding (Random Tour): accuracy holds, messages and delay pay",
      "Aggregation masks exchanges with a dropped push/pull (mass stays "
      "conserved), so a fixed-length epoch converges less at higher loss",
  };
  return report;
}

FigureReport ext_loss_delay(const FigureSpec&, const FigureParams& params) {
  FigureReport report = ext_loss_report(
      params, sim::LatencyModel::exponential(50.0), "ext_loss_delay",
      "Measured estimation delay under exp(50) per-hop latency and loss");
  report.notes = {
      "measured counterpart of the paper's §V delay conjecture: "
      "HopsSampling's parallel spread beats Aggregation's synchronized "
      "rounds, and both beat Sample&Collide's sequential samples",
      "loss adds timeout waits: sequential protocols absorb every wait "
      "into their critical path, parallel spreads only the per-round "
      "maximum",
  };
  return report;
}

// --- topology-aware delivery (extension: per-link latency/loss) -------------

struct TopoVariant {
  std::string_view label;
  std::string_view spec;  ///< topo::TopologyConfig::parse input
};

/// The topology sweep: every variant over an ideal base channel, so
/// column differences isolate the per-link model.
FigureReport ext_topo_report(const FigureParams& params,
                             std::span<const TopoVariant> variants,
                             std::string id, std::string title) {
  if (!params.net.empty()) {
    throw std::invalid_argument(
        id + ": --net conflicts with this figure's own topology sweep "
             "(the sweep fixes the channel per cell); drop the flag");
  }
  if (!params.topo.empty()) {
    throw std::invalid_argument(
        id + ": --topo conflicts with this figure's own topology sweep "
             "(the sweep fixes the topology per cell); drop the flag");
  }
  std::vector<SweepColumn> columns;
  for (const TopoVariant& variant : variants) {
    columns.push_back({std::string(variant.label), {},
                       topo::TopologyConfig::parse(variant.spec)});
  }
  FigureReport report = channel_sweep_report(
      params, columns, std::move(id), std::move(title), "topology", "");
  for (const SweepColumn& column : columns) {
    report.notes.push_back(column.label + " = " + column.topology.canonical());
  }
  return report;
}

FigureReport ext_topo_accuracy(const FigureSpec&, const FigureParams& params) {
  // Region sweep at the default class mix: more regions = more inter-region
  // links paying the loss penalty, plus longer propagation paths.
  static constexpr TopoVariant kVariants[] = {
      {"flat", "topo:flat"},
      {"1 region", "topo:clustered,regions=1,penalty=0"},
      {"4 regions", "topo:clustered,regions=4"},
      {"16 regions", "topo:clustered,regions=16"},
  };
  FigureReport report = ext_topo_report(
      params, kVariants, "ext_topo_accuracy",
      "Estimator accuracy on clustered overlays (region sweep, per-link "
      "class loss + inter-region penalty)");
  report.notes.insert(
      report.notes.begin(),
      {"per-link loss is class- and region-dependent: walk protocols "
       "(per-hop ARQ / hop-reliable) keep their estimates and pay in "
       "messages; polls lose coverage on lossy mobile edges",
       "more regions -> a larger inter-region link fraction pays the "
       "penalty, so effective loss grows with the region count"});
  return report;
}

FigureReport ext_topo_delay(const FigureSpec&, const FigureParams& params) {
  // Mobile-fraction sweep at fixed geometry: access latency and jitter grow
  // with the mobile share, so measured delay orders the protocols as the
  // paper's §V conjecture predicts — now under a heterogeneous network.
  // No datacenter share anywhere: only the mobile fraction varies, so
  // column differences are the treatment and nothing else.
  static constexpr TopoVariant kVariants[] = {
      {"all broadband", "topo:clustered,mix=0:1:0"},
      {"mobile 30%", "topo:clustered,mix=0:0.7:0.3"},
      {"mobile 80%", "topo:clustered,mix=0:0.2:0.8"},
  };
  FigureReport report = ext_topo_report(
      params, kVariants, "ext_topo_delay",
      "Measured estimation delay vs mobile-peer fraction (per-link "
      "propagation + access latency)");
  report.notes.insert(
      report.notes.begin(),
      {"delay = propagation (distance) + both endpoints' access terms; a "
       "growing mobile share inflates every link touching a mobile peer",
       "sequential walk protocols absorb every slow link into their "
       "critical path; parallel spreads pay only per-round maxima"});
  return report;
}

}  // namespace

// --- the declarative figure/scenario matrix ---------------------------------

const std::vector<FigureSpec>& figure_specs() {
  static const std::vector<FigureSpec> specs = {
      {"fig01",
       "Paper Fig 1: Sample&Collide oneShot/last10runs, l=200, 100k nodes, "
       "static",
       "sample_collide", "static", fig_static_quality,
       {.nodes = 100000, .estimations = 100, .sc_collisions = 200}},
      {"fig02",
       "Paper Fig 2: Sample&Collide oneShot/last10runs, l=200, 1M nodes, "
       "static",
       "sample_collide", "static", fig_static_quality,
       {.nodes = 1000000, .estimations = 18, .sc_collisions = 200}},
      {"fig03",
       "Paper Fig 3: HopsSampling oneShot/last10runs, 100k nodes, static",
       "hops_sampling", "static", fig_static_quality,
       {.nodes = 100000, .estimations = 100}},
      {"fig04",
       "Paper Fig 4: HopsSampling oneShot/last10runs, 1M nodes, static",
       "hops_sampling", "static", fig_static_quality,
       {.nodes = 1000000, .estimations = 20}},
      {"fig05", "Paper Fig 5: Aggregation quality vs round, 100k nodes",
       "aggregation", "static", fig_agg_convergence,
       {.nodes = 100000, .estimations = 100, .replicas = 3}},
      {"fig06", "Paper Fig 6: Aggregation quality vs round, 1M nodes",
       "aggregation", "static", fig_agg_convergence,
       {.nodes = 1000000, .estimations = 100, .replicas = 3}},
      {"fig07",
       "Paper Fig 7: scale-free degree distribution, 100k nodes, BA m=3", "",
       "", fig_scale_free_degrees, {.nodes = 100000}},
      {"fig08",
       "Paper Fig 8: the 3 algorithms on a 100k-node scale-free graph", "",
       "static", fig_scale_free_compare,
       {.nodes = 100000, .estimations = 100, .sc_collisions = 200,
        .agg_rounds = 50}},
      {"fig09",
       "Paper Fig 09: Sample&Collide oneShot, 100k nodes, catastrophic "
       "scenario",
       "sample_collide", "catastrophic", fig_dynamic_tracking,
       {.nodes = 100000, .estimations = 100, .replicas = 3,
        .sc_collisions = 200}},
      {"fig10",
       "Paper Fig 10: Sample&Collide oneShot, 100k nodes, growing scenario",
       "sample_collide", "growing", fig_dynamic_tracking,
       {.nodes = 100000, .estimations = 100, .replicas = 3,
        .sc_collisions = 200}},
      {"fig11",
       "Paper Fig 11: Sample&Collide oneShot, 100k nodes, shrinking scenario",
       "sample_collide", "shrinking", fig_dynamic_tracking,
       {.nodes = 100000, .estimations = 100, .replicas = 3,
        .sc_collisions = 200}},
      {"fig12",
       "Paper Fig 12: HopsSampling last10runs, 100k nodes, catastrophic "
       "scenario",
       "hops_sampling", "catastrophic", fig_dynamic_tracking,
       {.nodes = 100000, .estimations = 100, .replicas = 3}},
      {"fig13",
       "Paper Fig 13: HopsSampling last10runs, 100k nodes, growing scenario",
       "hops_sampling", "growing", fig_dynamic_tracking,
       {.nodes = 100000, .estimations = 100, .replicas = 3}},
      {"fig14",
       "Paper Fig 14: HopsSampling last10runs, 100k nodes, shrinking "
       "scenario",
       "hops_sampling", "shrinking", fig_dynamic_tracking,
       {.nodes = 100000, .estimations = 100, .replicas = 3}},
      {"fig15",
       "Paper Fig 15: Aggregation (50-round epochs), 100k nodes, "
       "catastrophic scenario",
       "aggregation", "catastrophic", fig_dynamic_tracking,
       {.nodes = 100000, .replicas = 3, .agg_rounds = 50}},
      {"fig16",
       "Paper Fig 16: Aggregation (50-round epochs), 100k nodes, growing "
       "scenario",
       "aggregation", "growing", fig_dynamic_tracking,
       {.nodes = 100000, .replicas = 3, .agg_rounds = 50}},
      {"fig17",
       "Paper Fig 17: Aggregation (50-round epochs), 100k nodes, shrinking "
       "scenario",
       "aggregation", "shrinking", fig_dynamic_tracking,
       {.nodes = 100000, .replicas = 3, .agg_rounds = 50}},
      {"fig18",
       "Paper Fig 18: Sample&Collide with l=10 (cheap configuration), 100k "
       "nodes",
       "sample_collide", "static", fig_static_quality,
       {.nodes = 100000, .estimations = 50, .sc_collisions = 10}},
      {"table1",
       "Paper Table I: accuracy vs overhead of the four configurations, 100k "
       "nodes",
       "", "static", table1_overhead, {.nodes = 100000, .estimations = 10}},
      {"ablation_sc_l_sweep",
       "Ablation: Sample&Collide cost/accuracy vs l (paper SV cost ratios)",
       "sample_collide", "static", ablation_sc_l_sweep,
       {.nodes = 100000, .estimations = 5}},
      {"ablation_sc_timer_sweep",
       "Ablation: T-walk sampler uniformity vs timer budget T",
       "sample_collide", "static", ablation_sc_timer_sweep, {.nodes = 2000}},
      {"ablation_hs_oracle",
       "Ablation: HopsSampling gossip distances vs oracle BFS distances "
       "(paper SV)",
       "hops_sampling", "static", ablation_hs_oracle,
       {.nodes = 100000, .estimations = 20}},
      {"ablation_estimators",
       "Ablation: quadratic vs maximum-likelihood collision estimators",
       "sample_collide", "static", ablation_estimators,
       {.nodes = 100000, .estimations = 20, .sc_collisions = 200}},
      {"ablation_homogeneous",
       "Ablation: heterogeneous vs homogeneous overlays (paper SIV-A remark)",
       "", "static", ablation_homogeneous,
       {.nodes = 50000, .estimations = 20}},
      {"ablation_baselines",
       "Ablation: Random Tour + naive Inverted Birthday vs Sample&Collide",
       "", "static", ablation_baselines, {.nodes = 20000, .estimations = 20}},
      {"ablation_cyclon",
       "Ablation: no-healing static wiring vs CYCLON-maintained overlay "
       "under 50% departures",
       "aggregation", "static", ablation_cyclon_healing, {.nodes = 20000}},
      {"ablation_delay",
       "Ablation: estimation delay under a per-hop latency model (paper SV "
       "conjecture)",
       "", "static", ablation_delay, {.nodes = 100000, .sc_collisions = 200}},
      {"ablation_structured",
       "Ablation: structured-overlay interval density vs the generic schemes",
       "interval_density", "static", ablation_structured,
       {.nodes = 100000, .estimations = 20}},
      {"ablation_polling",
       "Ablation: flat probabilistic polling vs HopsSampling's graded "
       "schedule",
       "flat_polling", "static", ablation_polling,
       {.nodes = 50000, .estimations = 10}},
      {"ablation_samplers",
       "Ablation: T-walk vs Metropolis-Hastings vs naive walk sampling "
       "uniformity",
       "", "static", ablation_samplers, {.nodes = 2000}},
      {"ablation_oscillating",
       "Extension: flash-crowd oscillation tracking (S&C vs Aggregation)",
       "sample_collide", "oscillating", ablation_oscillating,
       {.nodes = 50000, .estimations = 100, .sc_collisions = 100,
        .agg_rounds = 50}},
      {"trace_weibull",
       "Extension: Sample&Collide oneShot under heavy-tailed Weibull "
       "sessions (trace workload)",
       "sample_collide", "trace:weibull,shape=0.5,scale=50",
       fig_dynamic_tracking,
       {.nodes = 20000, .estimations = 100, .replicas = 3,
        .sc_collisions = 100}},
      {"trace_diurnal",
       "Extension: HopsSampling last10runs under diurnal (day/night) "
       "arrivals (trace workload)",
       "hops_sampling", "trace:diurnal,amplitude=0.6,period=250",
       fig_dynamic_tracking,
       {.nodes = 20000, .estimations = 100, .replicas = 3}},
      {"trace_flashcrowd",
       "Extension: Aggregation epochs through a flash crowd + mass exodus "
       "(trace workload)",
       "aggregation", "trace:flashcrowd,crowd_fraction=1,exodus_fraction=0.4",
       fig_dynamic_tracking,
       {.nodes = 20000, .replicas = 3, .agg_rounds = 50}},
      {"ext_loss_accuracy",
       "Extension: estimator accuracy as delivery loss grows (0/5/20%, "
       "unit per-hop latency)",
       "", "static", ext_loss_accuracy, {.nodes = 5000, .estimations = 10}},
      {"ext_loss_delay",
       "Extension: measured estimation delay under exp(50) latency and "
       "loss (the paper's SV conjecture, measured)",
       "", "static", ext_loss_delay, {.nodes = 5000, .estimations = 5}},
      {"ext_topo_accuracy",
       "Extension: estimator accuracy on clustered overlays (region sweep, "
       "per-link class loss + inter-region penalty)",
       "", "static", ext_topo_accuracy, {.nodes = 2000, .estimations = 10}},
      {"ext_topo_delay",
       "Extension: measured estimation delay vs mobile-peer fraction "
       "(per-link propagation + access latency)",
       "", "static", ext_topo_delay, {.nodes = 2000, .estimations = 5}},
  };
  return specs;
}

const FigureSpec* find_figure(std::string_view id) {
  for (const FigureSpec& spec : figure_specs()) {
    if (spec.id == id) return &spec;
  }
  return nullptr;
}

FigureReport run_figure(const FigureSpec& spec, const FigureParams& params) {
  return spec.generate(spec, params);
}

FigureReport run_figure(std::string_view id, const FigureParams& params) {
  const FigureSpec* spec = find_figure(id);
  if (!spec) {
    std::string known;
    for (const FigureSpec& candidate : figure_specs()) {
      if (!known.empty()) known += ", ";
      known += candidate.id;
    }
    throw std::invalid_argument("unknown figure '" + std::string(id) +
                                "' (known: " + known + ")");
  }
  return run_figure(*spec, params);
}

FigureReport run_matrix(const MatrixOptions& options) {
  const std::unique_ptr<est::Estimator> proto =
      est::EstimatorRegistry::global().build(options.estimator);
  // dynamic_tracking resolves the workload (script or trace) before fanning
  // out replicas, so an unknown name still fails fast.
  FigureReport report = dynamic_tracking(*proto, options.scenario,
                                         options.params,
                                         options.rounds_per_unit);
  const est::EstimatorSpec spec = est::EstimatorSpec::parse(options.estimator);
  report.id = "matrix_" + spec.name + "_" + options.scenario;
  report.params = "estimator=" + spec.canonical() +
                  " scenario=" + options.scenario + " " + report.params;
  return report;
}

}  // namespace p2pse::harness
