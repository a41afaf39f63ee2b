#include "p2pse/harness/figures.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/estimator.hpp"
#include "p2pse/est/flat_polling.hpp"
#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/est/interval_density.hpp"
#include "p2pse/est/registry.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/est/smoothing.hpp"
#include "p2pse/est/walk.hpp"
#include "p2pse/harness/parallel_runner.hpp"
#include "p2pse/net/analysis.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/cyclon.hpp"
#include "p2pse/obs/size_model.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/obs/telemetry.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/csv.hpp"
#include "p2pse/support/log_bins.hpp"
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

/// A table's report header: its id, its title, the params line
/// "nodes=N<extra> seed=S" and its columns.
FigureReport table_report(std::string id, std::string title,
                          const FigureParams& params, const std::string& extra,
                          std::vector<std::string> columns) {
  FigureReport report;
  report.id = std::move(id);
  report.title = std::move(title);
  report.params = "nodes=" + std::to_string(params.nodes) + extra +
                  " seed=" + std::to_string(params.seed);
  report.table_columns = std::move(columns);
  return report;
}

/// Params-line suffix describing a non-ideal channel (--net), a non-flat
/// topology (--topo) and a non-default wire-size model (--sizes). Each part
/// is empty on its default, and on an explicit all-default spec, so every
/// figure that predates a layer stays byte-identical.
std::string delivery_suffix(const scenario::RunOptions& options) {
  std::string out;
  if (!options.network.ideal()) out += " " + options.network.canonical();
  if (!options.topology.flat()) out += " " + options.topology.canonical();
  if (!options.sizes.empty()) {
    const obs::MessageSizeModel model =
        obs::MessageSizeModel::parse(options.sizes);
    if (!(model == obs::MessageSizeModel{})) out += " " + model.canonical();
  }
  return out;
}

/// True when traffic pays a channel: a non-ideal --net or a non-flat --topo.
bool routed(const scenario::RunOptions& options) {
  return !options.network.ideal() || !options.topology.flat();
}

/// The note quoting a delay measured through a routed channel.
std::string delay_note(const std::string& what, double delay) {
  return what + format_double(delay, 4) +
         " (latency units; wall-clock through the delivery channel)";
}

/// The replica setup a figure installs from its CLI knobs: --net (empty =
/// the ideal channel), --topo (empty = flat), --sizes, the telemetry sink,
/// and the intra-replica worker budget. Generators that reject --net/--topo
/// check first, so theirs are ideal and flat.
scenario::RunOptions replica_options(const FigureParams& params,
                                     std::size_t sim_workers = 1) {
  scenario::RunOptions options;
  if (!params.net.empty()) {
    options.network = sim::NetworkConfig::parse(params.net);
  }
  if (!params.topo.empty()) {
    options.topology = topo::TopologyConfig::parse(params.topo);
  }
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
/// run (the same no-silent-fallback rule as unknown flags). `channel` says
/// what the figure runs instead of --net.
scenario::RunOptions unrouted_options(
    const FigureParams& params, std::string_view id,
    std::string_view channel = "always runs the ideal channel") {
  scenario::RunOptions options = replica_options(params);
  for (const auto& [flag, set, fallback] :
       {std::tuple{"--net", !options.network.ideal(), channel},
        std::tuple{"--topo", !options.topology.flat(),
                   std::string_view("always runs the flat topology")}}) {
    if (set) {
      throw std::invalid_argument(
          std::string(id) + ": " + flag +
          " is not supported by this figure; it " + std::string(fallback) +
          " (drop the flag)");
    }
  }
  return options;
}

/// Builds a candidate from its registry spec text under the CLI-tunable
/// paper parameters (with_paper_params). Every figure names its candidates
/// this way ("sample_collide:l=10", "hops_sampling:oracle=true", ...).
/// `smooth_hs` injects the lastKruns window for dynamic HopsSampling
/// figures; static figures score the lastK view themselves.
std::unique_ptr<est::Estimator> candidate(std::string_view text,
                                          const FigureParams& params,
                                          bool smooth_hs = false) {
  return est::EstimatorRegistry::global().build(
      with_paper_params(text, params, smooth_hs));
}

/// The paper's score of a run of estimates against a fixed truth (§IV):
/// signed and absolute quality error in percent, and what one estimate
/// costs in messages, bytes and delay. Invalid estimates are counted, not
/// scored. A lastK window adds the smoothed lastKruns view (Table I,
/// Fig 8), scored once the window is full. Bytes are what the caller
/// charges (FixedOverlay::score: what each estimate put on the wire), and
/// so are the coverage of spread-phase estimators and the raw points.
struct Scores {
  Scores() = default;
  /// With a lastK window; LastKAverage rejects an empty one.
  explicit Scores(std::size_t last_k) : smoother(std::in_place, last_k) {}

  void add(const est::Estimate& e, double truth, std::uint64_t byte_cost = 0) {
    if (!e.valid) {
      ++invalid;
      return;
    }
    const double q = support::quality_percent(e.value, truth) - 100.0;
    signed_err.add(q);
    abs_err.add(std::abs(q));
    messages.add(static_cast<double>(e.messages));
    bytes.add(static_cast<double>(byte_cost));
    delay.add(e.delay);
    if (!smoother) return;
    const double qa =
        support::quality_percent(smoother->add(e.value), truth) - 100.0;
    if (!smoother->full()) return;
    last_k_signed.add(qa);
    last_k_abs.add(std::abs(qa));
  }

  /// Cross-replica reduction, in replica order.
  void merge(const Scores& other) {
    signed_err.merge(other.signed_err);
    abs_err.merge(other.abs_err);
    messages.merge(other.messages);
    bytes.merge(other.bytes);
    delay.merge(other.delay);
    last_k_signed.merge(other.last_k_signed);
    last_k_abs.merge(other.last_k_abs);
    coverage.merge(other.coverage);
    invalid += other.invalid;
  }

  support::RunningStats signed_err, abs_err, messages, bytes, delay;
  support::RunningStats last_k_signed, last_k_abs;
  support::RunningStats coverage;  ///< fraction of the overlay a poll reached
  std::size_t invalid = 0;
  std::optional<est::LastKAverage> smoother;
  /// Every estimate, valid or not, at x = its 1-based index (one run's
  /// points; merge leaves them alone).
  scenario::Series points;
};

/// A candidate of a comparison table: its row label, registry spec and
/// the name of its estimator stream.
struct Candidate {
  std::string_view label;
  std::string_view spec;
  std::string_view stream;
};

/// The fixed-overlay prologue: one replica, its true size, and the
/// initiator every candidate polls from, drawn from root.split(tag, index).
struct FixedOverlay {
  template <typename Source>
  FixedOverlay(const scenario::RunOptions& options, Source&& overlay,
               const RngStream& root, std::uint64_t index = 0, int lane = 0,
               std::string_view tag = "initiator")
      : replica(options, std::forward<Source>(overlay), root, index, lane),
        sim(replica.sim()),
        truth(static_cast<double>(sim.graph().size())) {
    RngStream pick = root.split(tag, index);
    initiator = sim.graph().random_alive(pick);
  }

  /// Runs `runs` estimations of `estimator` from the initiator into
  /// `scores`, charging each the bytes it put on the wire.
  Scores score(est::Estimator& estimator, RngStream rng, std::size_t runs,
               Scores scores = {}) {
    for (std::size_t i = 1; i <= runs; ++i) {
      const std::uint64_t byte_base = sim.meter().total_bytes();
      const est::Estimate e = estimator.estimate(sim, initiator, rng);
      scores.add(e, truth, sim.meter().total_bytes() - byte_base);
      const double coverage = estimator.last_coverage();
      if (!std::isnan(coverage)) scores.coverage.add(coverage);
      scores.points.push_back({.time = static_cast<double>(i),
                               .truth = truth,
                               .estimate = e.value,
                               .valid = e.valid,
                               .messages = e.messages,
                               .delay = e.delay});
    }
    return scores;
  }

  scenario::Replica replica;
  sim::Simulator& sim;
  double truth;
  net::NodeId initiator = net::kInvalidNode;
};

/// chi^2/df of `samples` draws of `draw()` (a node id) against the uniform
/// law over the overlay's alive nodes; 1.0 = uniform.
template <typename Draw>
double chi2_per_df(const sim::Simulator& sim, std::size_t samples,
                   Draw&& draw) {
  std::vector<std::uint64_t> counts(sim.graph().slot_count(), 0);
  for (std::size_t i = 0; i < samples; ++i) ++counts[draw()];
  return support::chi_square_uniform(counts) /
         static_cast<double>(sim.graph().size() - 1);
}

/// The quality curve (§IV) of a run's valid estimates: each estimate's
/// quality, or with a lastK window the running lastKruns mean's.
support::Series quality_curve(support::Series line,
                              const scenario::Series& points,
                              std::size_t last_k = 0) {
  std::optional<est::LastKAverage> smoother;
  if (last_k > 0) smoother.emplace(last_k);
  for (const scenario::SeriesPoint& p : points) {
    if (!p.valid) continue;
    line.x.push_back(p.time);
    line.y.push_back(support::quality_percent(
        smoother ? smoother->add(p.estimate) : p.estimate, p.truth));
  }
  return line;
}

/// The empty plot line of replica `r`: "Estimation #r+1", glyph '1'..'9'.
support::Series replica_series(std::size_t r) {
  return {"Estimation #" + std::to_string(r + 1), {}, {},
          static_cast<char>('1' + r % 9)};
}

/// Assembles the dynamic-figure report: truth line + one estimate series per
/// replica, as in Figs 9-17. `lines` names and glyphs the estimate series
/// (default: "Estimation #r").
FigureReport dynamic_report(const std::vector<scenario::Series>& replicas,
                            std::string x_label, double x_scale,
                            std::vector<support::Series> lines = {}) {
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
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    support::Series s = r < lines.size() ? lines[r] : replica_series(r);
    for (const auto& point : replicas[r]) {
      if (!point.valid) continue;
      s.x.push_back(point.time * x_scale);
      s.y.push_back(point.estimate);
    }
    report.series.push_back(std::move(s));
  }
  return report;
}

/// Tracking error, messages and delay over every valid point of every
/// replica, in one pass.
struct TrackingStats {
  support::RunningStats error;  // |estimate - truth| / truth
  support::RunningStats messages;
  support::RunningStats delay;
};

TrackingStats tracking_stats(const std::vector<scenario::Series>& replicas) {
  TrackingStats stats;
  for (const auto& series : replicas) {
    for (const auto& point : series) {
      if (!point.valid) continue;
      if (point.truth > 0.0) {
        stats.error.add(std::abs(point.estimate - point.truth) / point.truth);
      }
      stats.messages.add(static_cast<double>(point.messages));
      stats.delay.add(point.delay);
    }
  }
  return stats;
}

/// Records the per-replica (x, truth, estimate, messages, valid) points
/// for --csv export. Not printed with the report. Invalid estimates are
/// kept but flagged, so external plots can filter them instead of charting
/// value 0.
void attach_raw_series(FigureReport& report,
                       const std::vector<scenario::Series>& replicas,
                       std::string x_column = "time") {
  report.raw_columns = {"replica",  std::move(x_column), "truth",
                        "estimate", "messages",          "valid"};
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    for (const auto& point : replicas[r]) {
      report.raw_rows.push_back({static_cast<double>(r), point.time,
                                 point.truth, point.estimate,
                                 static_cast<double>(point.messages),
                                 point.valid ? 1.0 : 0.0});
    }
  }
}

// --- paper captions per estimator -------------------------------------------

/// The value of `key` on an estimator's describe() line ("l=200 T=10"), or
/// "" when the line has no such field.
std::string described(const est::Estimator& estimator, std::string_view key) {
  std::istringstream fields(estimator.describe());
  const std::string prefix = std::string(key) + "=";
  for (std::string field; fields >> field;) {
    if (field.starts_with(prefix)) return field.substr(prefix.size());
  }
  return {};
}

/// Caption of a dynamic-tracking report. The paper's three candidates
/// (Figs 9-17) keep the paper's wording; the last row, keyed "", is what
/// every other estimator gets. Captions describe the estimator that
/// actually ran (its describe() line), not FigureParams: a matrix override
/// like `sample_collide:l=10` must not be reported as the paper's l=200.
struct TrackingCaption {
  std::string_view estimator;  ///< registry name; "" = any other
  std::string (*title)(const est::Estimator&);
  bool per_estimation_x;       ///< x = estimation index (Figs 9-11)
  std::string_view param_key;  ///< describe() field on the params line
  bool pacing;                 ///< estimations= / rounds_per_unit= too
  std::string_view error_note;  ///< appended to the tracking-error note
  std::string_view paper_note;  ///< a note line of its own
  bool messages_note;           ///< quote the mean messages per estimate
};

constexpr TrackingCaption kTrackingCaptions[] = {
    {"sample_collide",
     [](const est::Estimator&) {
       return std::string("Sample&Collide oneShot");
     },
     true, "l", true, " (paper: reacts well even to brutal changes)", "",
     false},
    {"hops_sampling",
     [](const est::Estimator& e) {
       const std::string k = described(e, "lastK");
       return "HopsSampling " +
              (k.empty() ? std::string("oneShot") : "last" + k + "runs");
     },
     false, "", true,
     " (paper: good behaviour, slight under-estimation, more variance than "
     "Sample&Collide)",
     "", false},
    {"aggregation",
     [](const est::Estimator& e) {
       return "Aggregation (" + described(e, "rounds_per_epoch") +
              "-round epochs)";
     },
     false, "rounds_per_epoch", false, "",
     "paper: adapts to growth; under heavy departures the overlay loses "
     "connectivity and estimates degrade (threshold ~30% departures)",
     false},
    {"",
     [](const est::Estimator& e) {
       return std::string(e.display_name()) + " (" + e.describe() + ")";
     },
     false, "", true, "", "", true},
};

/// Paper-comparison suffixes of a static-quality report's notes (Figs 1-4,
/// 18), keyed like kTrackingCaptions; the last row adds nothing.
struct StaticCaption {
  std::string_view estimator;  ///< registry name; "" = any other
  const char* one_shot_error;  ///< after the oneShot mean |error|
  const char* last_k_error;    ///< after the lastK mean |error|
  const char* coverage;        ///< after the mean poll coverage
  const char* messages;        ///< after the mean messages per estimation
};

constexpr StaticCaption kStaticCaptions[] = {
    {"sample_collide", " (paper: mostly within 10%, peaks to 20%)",
     " (paper: within 3-4%)", "", ""},
    {"hops_sampling", " (paper: peaks over 50%)",
     " (paper: within 20%, consistent under-estimation)",
     " (paper: ~89% at 1e5)", " (paper: O(2N))"},
    {"", "", "", "", ""},
};

/// The row of a caption table for `estimator`: its own, else the last.
template <class Caption, std::size_t N>
const Caption& caption_for(const Caption (&table)[N],
                           std::string_view estimator) {
  const Caption* caption = table;
  while (!caption->estimator.empty() && caption->estimator != estimator) {
    ++caption;
  }
  return *caption;
}

// --- static setting (§IV-C): Figs 1-4, 18 -----------------------------------

FigureReport fig_static_quality(const FigureSpec& spec,
                                const FigureParams& params) {
  const std::unique_ptr<est::Estimator> proto =
      candidate(spec.estimator, params);
  const RngStream root(params.seed);
  const ParallelReplicaRunner pool(params.threads);
  const scenario::RunOptions options =
      replica_options(params, figure_sim_budget(params, pool));
  // Replica `rep` builds its own overlay and streams from split(tag, rep),
  // so results do not depend on the thread count.
  const std::size_t replicas = std::max<std::size_t>(1, params.replicas);
  struct Outcome {
    Scores scores;
    /// Alive peers per topology class (all zero on the flat topology).
    std::array<std::size_t, topo::kPeerClassCount> class_census{};
  };
  const auto outcomes = pool.map<Outcome>(replicas, [&](std::size_t rep) {
    const int lane = static_cast<int>(rep) + 1;
    FixedOverlay at(options, hetero_factory(params.nodes), root, rep, lane);
    const std::unique_ptr<est::Estimator> estimator = proto->clone();
    const obs::Span sim_span = obs_span(params, "simulate", lane);
    Outcome out{at.score(*estimator, root.split("estimator", rep),
                         params.estimations, Scores(params.last_k))};
    if (at.sim.topology()) {
      out.class_census = at.sim.topology()->alive_class_counts();
    }
    return out;
  });
  const obs::Span merge_span = obs_span(params, "merge");
  Scores r;  // cross-replica aggregates, merged in replica order
  std::vector<scenario::Series> raw;
  for (const Outcome& o : outcomes) {
    r.merge(o.scores);
    raw.push_back(o.scores.points);
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
                  " seed=" + std::to_string(params.seed) +
                  delivery_suffix(options);
  report.plot = quality_plot(
      "Quality of " + std::string(proto->display_name()) + " estimations",
      "Number of estimations");
  const scenario::Series& plotted = outcomes.front().scores.points;
  report.series = {
      quality_curve({"one shot", {}, {}, '*'}, plotted),
      quality_curve({"last " + std::to_string(params.last_k) + " runs", {},
                     {}, '+'},
                    plotted, params.last_k)};

  // Paper-comparison suffixes differ per candidate; the measurements and
  // their order do not.
  const bool polls = r.coverage.count() > 0;  // spread-phase estimators
  const StaticCaption& caption = caption_for(kStaticCaptions, proto->name());
  report.notes.push_back("mean |error| oneShot: " +
                         format_double(r.abs_err.mean(), 3) + "%" +
                         caption.one_shot_error);
  report.notes.push_back("mean |error| lastK:   " +
                         format_double(r.last_k_abs.mean(), 3) + "%" +
                         caption.last_k_error);
  if (polls) {
    report.notes.push_back(
        "mean signed error oneShot: " +
        format_double(r.signed_err.mean(), 3) +
        "% (negative = under-estimates, as the paper observes)");
    report.notes.push_back(
        "mean poll coverage: " + format_double(100.0 * r.coverage.mean(), 4) +
        "% of nodes reached" + caption.coverage);
  }
  report.notes.push_back("mean messages per estimation: " +
                         human_count(r.messages.mean()) + caption.messages);
  if (routed(options)) {
    report.notes.push_back(delay_note("mean measured delay per estimation: ",
                                      r.delay.mean()));
  }
  if (!options.topology.flat()) {
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

  attach_raw_series(report, raw, "estimation");
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
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " rounds=" + std::to_string(rounds) +
                  " runs=" + std::to_string(params.replicas) +
                  " seed=" + std::to_string(params.seed) +
                  delivery_suffix(options);
  report.plot = quality_plot("Convergence of Aggregation", "#Round");
  report.plot.y_max = 110.0;

  // Each run reads its epoch at the initiator after every round.
  const auto runs =
      pool.map<scenario::Series>(params.replicas, [&](std::size_t run) {
    // Per-run sim seed: the sim's root stream only feeds the channel, so
    // this keeps runs' loss/latency draws independent without touching the
    // (ideal-channel) byte-identity contract.
    const int lane = static_cast<int>(run) + 1;
    FixedOverlay at(options, graph, root, run, lane);
    const obs::Span sim_span = obs_span(params, "simulate", lane);
    RngStream est_rng = root.split("estimator", run);
    const std::unique_ptr<est::Estimator> agg = proto->clone();
    agg->start_epoch(at.sim, at.initiator, est_rng);
    scenario::Series out;
    for (std::size_t round = 1; round <= rounds; ++round) {
      const std::uint64_t before = at.sim.meter().total();
      agg->run_round(at.sim, est_rng);
      const est::Estimate e = agg->epoch_estimate(at.sim, at.initiator);
      // The epoch's delay is cumulative across its rounds.
      out.push_back({.time = static_cast<double>(round),
                     .truth = at.truth,
                     .estimate = e.value,
                     .valid = e.valid,
                     .messages = at.sim.meter().since(before),
                     .delay = e.delay});
    }
    return out;
  });
  const obs::Span merge_span = obs_span(params, "merge");

  for (std::size_t run = 0; run < runs.size(); ++run) {
    support::Series line = replica_series(run);
    std::size_t converged_at = 0;
    for (const scenario::SeriesPoint& p : runs[run]) {
      const double q =
          p.valid ? support::quality_percent(p.estimate, p.truth) : 0.0;
      line.x.push_back(p.time);
      line.y.push_back(q);
      if (converged_at == 0 && std::abs(q - 100.0) <= 1.0) {
        converged_at = static_cast<std::size_t>(p.time);
      }
    }
    report.notes.push_back(
        "run #" + std::to_string(run + 1) + " reaches 99% quality at round " +
        (converged_at ? std::to_string(converged_at) : "(not reached)"));
    report.series.push_back(std::move(line));
  }
  report.notes.push_back(
      "paper: converges around round 40 at 1e5 nodes, around 50 at 1e6");
  if (routed(options) && !runs.empty()) {
    report.notes.push_back(delay_note(
        "measured delay across " + std::to_string(rounds) +
            " rounds (run #1): ",
        runs.front().empty() ? 0.0 : runs.front().back().delay));
  }
  attach_raw_series(report, runs, "round");
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
  const auto bins = support::log_binned(stats.counts);
  const double slope = support::power_law_slope(bins);

  FigureReport report;
  report.id = "fig_scale_free_degrees";
  report.title = "Scale-free degree distribution (Barabasi-Albert, m=3)";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " attach=3 seed=" + std::to_string(params.seed);
  // Paper's axes: x = number of nodes with that degree, y = degree.
  support::Series s{"Scale Free Distribution", {}, {}, '*'};
  for (std::size_t degree = 1; degree < stats.counts.size(); ++degree) {
    const std::uint64_t count = stats.counts[degree];
    if (count == 0) continue;
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

/// One candidate of Fig 8: what it runs, how it is plotted and which of
/// its scores the caption quotes.
struct ScaleFreeRow {
  std::string_view spec;
  std::string_view stream;
  std::string_view series;
  char glyph;
  bool last_k;  ///< plot and quote the lastKruns view
  std::string_view name;
  std::string_view quoted_label;
  support::RunningStats Scores::*quoted;
  std::string_view paper;
};

constexpr ScaleFreeRow kScaleFreeRows[] = {
    {"sample_collide", "sc", "Sample&collide", 's', false, "Sample&Collide",
     "mean |error|", &Scores::abs_err, "degree distribution does not bias it"},
    {"hops_sampling", "hs", "HopsSampling", 'h', true, "HopsSampling",
     "mean signed error", &Scores::last_k_signed,
     "under-estimation amplified on scale-free"},
    {"aggregation", "agg", "Aggregation", 'a', false, "Aggregation",
     "mean |error|", &Scores::abs_err, "still accurate on scale-free"},
};

FigureReport fig_scale_free_compare(const FigureSpec&,
                                    const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "fig_scale_free_compare");
  const RngStream root(params.seed);
  FixedOverlay at(
      options,
      [&params](RngStream& rng) {
        return net::build_barabasi_albert({params.nodes, 3}, rng);
      },
      root);

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
  // One estimation per x step: Aggregation runs one epoch of agg_rounds.
  for (const ScaleFreeRow& row : kScaleFreeRows) {
    const Scores scores = at.score(
        *candidate(row.spec, params), root.split(row.stream),
        params.estimations, row.last_k ? Scores(params.last_k) : Scores());
    report.notes.push_back(std::string(row.name) + " " +
                           std::string(row.quoted_label) + ": " +
                           format_double((scores.*row.quoted).mean(), 3) +
                           "% (paper: " + std::string(row.paper) + ")");
    report.series.push_back(quality_curve(
        {std::string(row.series), {}, {}, row.glyph}, scores.points,
        row.last_k ? params.last_k : 0));
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
  for (const auto& [flag, set] :
       {std::pair{"--net", !options.network.ideal()},
        std::pair{"--topo", !options.topology.flat()}}) {
    if (set && !proto.uses_channel()) {
      throw std::invalid_argument(
          std::string(proto.name()) + ": " + flag +
          " has no effect on this estimator (its traffic does not route "
          "through the delivery channel); drop the flag");
    }
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

  const TrackingCaption& caption = caption_for(kTrackingCaptions, proto.name());
  const bool epoch = proto.mode() == est::Estimator::Mode::kEpoch;
  const TrackingStats stats = tracking_stats(replicas);
  // Paper's x-axis for Figs 9-11 is the estimation index.
  FigureReport report =
      caption.per_estimation_x
          ? dynamic_report(replicas, "Number of estimations",
                           static_cast<double>(params.estimations) / duration)
          : dynamic_report(replicas, epoch ? "#Round" : "Time",
                           epoch ? rounds_per_unit : 1.0);
  report.id = "fig_" + std::string(proto.short_name()) + "_dynamic";
  report.title =
      caption.title(proto) + ", " + std::string(kind_label(scenario));
  report.params = "nodes=" + std::to_string(nodes);
  if (!caption.param_key.empty()) {
    report.params += " " + std::string(caption.param_key) + "=" +
                     described(proto, caption.param_key);
  }
  if (caption.pacing) {
    report.params +=
        epoch ? " rounds_per_unit=" + format_double(rounds_per_unit)
              : " estimations=" + std::to_string(params.estimations);
  }
  report.params += " replicas=" + std::to_string(replica_count) +
                   " seed=" + std::to_string(params.seed) +
                   delivery_suffix(options);
  report.notes.push_back("mean |estimate-truth|/truth: " +
                         format_double(100.0 * stats.error.mean(), 3) + "%" +
                         std::string(caption.error_note));
  if (!caption.paper_note.empty()) {
    report.notes.emplace_back(caption.paper_note);
  }
  if (caption.messages_note) {
    report.notes.push_back("mean messages per estimate: " +
                           human_count(stats.messages.mean()));
  }
  if (routed(options)) {
    report.notes.push_back(
        delay_note("mean measured delay per estimate: ", stats.delay.mean()));
  }
  attach_raw_series(report, replicas);
  return report;
}

FigureReport fig_dynamic_tracking(const FigureSpec& spec,
                                  const FigureParams& params) {
  const std::unique_ptr<est::Estimator> proto =
      candidate(spec.estimator, params, /*smooth_hs=*/true);
  return dynamic_tracking(*proto, spec.scenario, params,
                          /*rounds_per_unit=*/10.0);
}

// --- overheads (§IV-E): Table I ---------------------------------------------

FigureReport table1_overhead(const FigureSpec&, const FigureParams& params) {
  const scenario::RunOptions options = unrouted_options(params, "table1");
  const RngStream root(params.seed);
  FixedOverlay at(options, hetero_factory(params.nodes), root);
  // The bytes and max-load columns need the distribution recorder whether
  // or not a telemetry sink is attached. Recording never draws, so the
  // legacy columns are byte-identical to the recorder-less table.
  at.sim.enable_recorder();
  const std::size_t runs = std::max<std::size_t>(params.last_k,
                                                 params.estimations);

  FigureReport report = table_report(
      "table1",
      "Overhead for an estimation on a " +
          human_count(static_cast<double>(params.nodes)) +
          " node overlay (paper Table I)",
      params, " runs=" + std::to_string(runs),
      {"Algorithm", "Heuristic", "mean error %", "mean |error| %",
       "overhead (msgs)", "overhead (bytes)", "max node load",
       "paper overhead"});
  report.params += delivery_suffix(options);

  // Each candidate's max node load counts only its own runs.
  const auto run = [&](std::string_view spec, std::string_view stream,
                       std::size_t count, Scores scores) {
    at.sim.recorder()->reset_node_loads();
    return at.score(*candidate(spec, params), root.split(stream), count,
                    std::move(scores));
  };
  // A lastKruns row costs K estimations.
  const auto add_row = [&](std::string name, std::string mode,
                           const Scores& scores, bool last_k,
                           std::string paper) {
    const double k = last_k ? static_cast<double>(params.last_k) : 1.0;
    report.table_rows.push_back(
        {std::move(name), std::move(mode),
         format_double((last_k ? scores.last_k_signed : scores.signed_err)
                           .mean(), 3),
         format_double((last_k ? scores.last_k_abs : scores.abs_err).mean(),
                       3),
         human_count(scores.messages.mean() * k),
         human_count(scores.bytes.mean() * k) + "B",
         human_count(
             static_cast<double>(at.sim.recorder()->max_node_messages())),
         std::move(paper)});
  };
  const std::string last_k = "last" + std::to_string(params.last_k) + "runs";
  const std::string sc =
      "Sample&Collide (l=" + std::to_string(params.sc_collisions) + ")";

  // Sample&Collide: oneShot and lastK from the same run sequence.
  const Scores sc_scores =
      run("sample_collide", "sc", runs, Scores(params.last_k));
  add_row(sc, "oneShot", sc_scores, false, "0.5M, +/-10%");
  add_row(sc, last_k, sc_scores, true, "5M, +/-4%");
  add_row("HopsSampling", last_k,
          run("hops_sampling", "hs", runs, Scores(params.last_k)), true,
          "2.5M, -20%");
  add_row("Aggregation", std::to_string(params.agg_rounds) + " rounds",
          run("aggregation", "agg", std::min<std::size_t>(3, runs), {}), false,
          "10M, -1%");
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

  FigureReport report = table_report(
      "ablation_sc_l_sweep", "Sample&Collide accuracy/overhead trade-off vs l",
      params,
      " T=" + format_double(params.sc_timer) +
          " runs/l=" + std::to_string(params.estimations),
      {"l", "mean |error| %", "mean msgs/estimation", "cost ratio vs l=10"});
  const std::vector<std::uint32_t> l_values = {10, 50, 100, 200};
  // Grid fan-out: every l gets its own copy of the overlay (same wiring,
  // same initiator) and its own seed-derived stream, so results match the
  // sequential sweep exactly at any thread count.
  const ParallelReplicaRunner pool(params.threads);
  const auto cells = pool.map<Scores>(l_values.size(), [&](std::size_t i) {
    const std::uint32_t l = l_values[i];
    FixedOverlay at(options, graph, root);
    return at.score(
        *candidate("sample_collide:l=" + std::to_string(l), params),
        root.split("sc", l), params.estimations);
  });
  const double base_cost = cells.front().messages.mean();
  for (std::size_t i = 0; i < l_values.size(); ++i) {
    const double cost = cells[i].messages.mean();
    report.table_rows.push_back(
        {std::to_string(l_values[i]),
         format_double(cells[i].abs_err.mean(), 3), human_count(cost),
         format_double(base_cost > 0 ? cost / base_cost : 0.0, 3)});
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
  const std::size_t samples = 30 * graph.size();

  FigureReport report = table_report(
      "ablation_sc_timer_sweep", "T-walk sampler uniformity vs timer budget T",
      params, " samples/T=" + std::to_string(samples),
      {"T", "chi2/df (1.0 = uniform)", "mean walk steps"});
  const std::vector<double> timers = {0.5, 1.0, 2.0, 5.0, 10.0};

  struct TimerCell {
    double chi2_per_df = 0.0;
    support::RunningStats steps;
  };
  const ParallelReplicaRunner pool(params.threads);
  const auto cells = pool.map<TimerCell>(timers.size(), [&](std::size_t i) {
    const double timer = timers[i];
    FixedOverlay at(options, graph, root);
    const est::SampleCollide sc({.timer = timer, .collisions = 1});
    RngStream rng = root.split("walk", static_cast<std::uint64_t>(timer * 100));
    TimerCell cell;
    cell.chi2_per_df = chi2_per_df(at.sim, samples, [&] {
      const est::WalkSample ws = sc.sample(at.sim, at.initiator, rng);
      cell.steps.add(static_cast<double>(ws.steps));
      return ws.node;
    });
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

/// What a comparison-table cell quotes from a candidate's scores.
enum class Quote { kSignedErr, kErrStddev, kAbsErr, kCoverage, kMessages };

std::string quote(const Scores& scores, Quote what) {
  switch (what) {
    case Quote::kSignedErr: return format_double(scores.signed_err.mean(), 3);
    case Quote::kErrStddev: return format_double(scores.signed_err.stddev(), 3);
    case Quote::kAbsErr: return format_double(scores.abs_err.mean(), 3);
    case Quote::kCoverage:
      return format_double(100.0 * scores.coverage.mean(), 4);
    case Quote::kMessages: return human_count(scores.messages.mean());
  }
  return {};
}

/// An overlay a comparison table scores its candidates on, built from
/// root.split(stream).
struct TableOverlay {
  std::string_view label;  ///< "" = the table has no overlay column
  std::string_view stream;
  net::Graph (*build)(std::size_t nodes, RngStream& rng);
};

/// A comparison table as a row: every candidate scored on every overlay
/// from one initiator, one table row per (overlay, candidate). An epoch
/// candidate runs one epoch, a point candidate --estimations polls.
struct ComparisonTable {
  std::string_view id;
  std::string_view title;
  bool quotes_l;  ///< the params line names --l
  std::vector<std::string> columns;
  std::vector<TableOverlay> overlays;
  std::vector<Candidate> candidates;
  std::vector<Quote> quotes;
  std::vector<std::string_view> notes;
};

const std::vector<ComparisonTable>& comparison_tables() {
  const auto homogeneous = [](std::size_t nodes, RngStream& rng) {
    return net::build_homogeneous_random({nodes, 7}, rng);
  };
  const auto scale_free = [](std::size_t nodes, RngStream& rng) {
    return net::build_barabasi_albert({nodes, 3}, rng);
  };
  static const std::vector<ComparisonTable> tables = {
      {"ablation_hs_oracle",
       "HopsSampling: gossip distances vs oracle BFS distances",
       false,
       {"variant", "mean error %", "mean |error| %", "mean coverage %"},
       {{"", "graph", build_hetero}},
       {{"gossip spread", "hops_sampling", "gossip"},
        {"oracle BFS", "hops_sampling:oracle=true", "oracle"}},
       {Quote::kSignedErr, Quote::kAbsErr, Quote::kCoverage},
       {"paper §V: with accurate distances the estimate is correct — the "
        "under-estimation comes from the spread phase (partial reach, "
        "inaccurate distances), ~11% of nodes unreached at 1e5"}},
      // Same stream per variant: same samples, only the formula differs.
      {"ablation_estimators",
       "Collision estimator: quadratic (C^2/2l) vs maximum likelihood",
       true,
       {"estimator", "mean error %", "stddev %", "mean |error| %"},
       {{"", "graph", build_hetero}},
       {{"quadratic", "sample_collide", "runs"},
        {"MLE", "sample_collide:estimator=mle", "runs"}},
       {Quote::kSignedErr, Quote::kErrStddev, Quote::kAbsErr},
       {"identical RNG stream per variant: differences are purely the "
        "estimator formula"}},
      {"ablation_homogeneous",
       "Heterogeneous vs homogeneous overlays",
       false,
       {"overlay", "algorithm", "mean |error| %"},
       {{"heterogeneous", "hetero", build_hetero},
        {"homogeneous d=7", "homo", homogeneous}},
       {{"Sample&Collide", "sample_collide", "sc"},
        {"HopsSampling", "hops_sampling", "hs"},
        {"Aggregation", "aggregation", "agg"}},
       {Quote::kAbsErr},
       {"paper: homogeneous graphs 'consistently improved all algorithms'; "
        "the heterogeneous setting is the worst case the paper reports"}},
      {"ablation_baselines",
       "Random-walk baselines: Sample&Collide vs Random Tour vs naive "
       "Inverted Birthday Paradox",
       false,
       {"graph", "algorithm", "mean error %", "mean |error| %",
        "mean msgs/run"},
       {{"heterogeneous", "hetero_graph", build_hetero},
        {"scale-free", "ba_graph", scale_free}},
       {{"Sample&Collide (l=10)", "sample_collide:l=10", "sc"},
        {"Random Tour", "random_tour", "tour"},
        {"Inverted Birthday (biased sampler, l=10)",
         "inverted_birthday:walk_length=30,l=10", "ibp"}},
       {Quote::kSignedErr, Quote::kAbsErr, Quote::kMessages},
       {"Random Tour is unbiased but its per-run cost scales with |E|/deg(i) "
        "(paper §II: 'much lower' overhead for Sample&Collide)",
        "the naive fixed-length-walk sampler over-samples high-degree nodes, "
        "deflating estimates on the scale-free graph (motivates the "
        "T-walk)"}},
  };
  return tables;
}

FigureReport comparison_table(const FigureSpec& spec,
                              const FigureParams& params) {
  const ComparisonTable& table = *std::find_if(
      comparison_tables().begin(), comparison_tables().end(),
      [&](const ComparisonTable& row) { return row.id == spec.id; });
  const scenario::RunOptions options = unrouted_options(params, table.id);
  const RngStream root(params.seed);
  FigureReport report = table_report(
      std::string(table.id), std::string(table.title), params,
      (table.quotes_l ? " l=" + std::to_string(params.sc_collisions) : "") +
          " runs=" + std::to_string(params.estimations),
      table.columns);
  for (const TableOverlay& overlay : table.overlays) {
    RngStream graph_rng = root.split(overlay.stream);
    obs::Span build_span = obs_span(params, "graph-build");
    net::Graph graph = overlay.build(params.nodes, graph_rng);
    build_span = obs::Span{};
    FixedOverlay at(options, std::move(graph), root);
    for (const Candidate& c : table.candidates) {
      const std::unique_ptr<est::Estimator> estimator =
          candidate(c.spec, params);
      const std::size_t runs =
          estimator->mode() == est::Estimator::Mode::kEpoch
              ? 1
              : params.estimations;
      const Scores scores = at.score(*estimator, root.split(c.stream), runs);
      std::vector<std::string> row;
      if (!overlay.label.empty()) row.emplace_back(overlay.label);
      row.emplace_back(c.label);
      for (const Quote what : table.quotes) row.push_back(quote(scores, what));
      report.table_rows.push_back(std::move(row));
    }
  }
  report.notes.assign(table.notes.begin(), table.notes.end());
  return report;
}

FigureReport ablation_cyclon_healing(const FigureSpec&,
                                     const FigureParams& params) {
  const scenario::RunOptions options =
      unrouted_options(params, "ablation_cyclon");
  const RngStream root(params.seed);

  FigureReport report = table_report(
      "ablation_cyclon_healing",
      "No-healing static wiring vs CYCLON-maintained overlay under heavy "
      "departures",
      params, " departures=50%",
      {"overlay", "largest component %", "components",
       "Aggregation |error| %"});

  const auto measure = [&](const std::string& label, net::Graph graph) {
    const net::ComponentInfo info = net::connected_components(graph);
    FixedOverlay at(options, std::move(graph), root, 0, 0, "pick");
    const double largest =
        100.0 * static_cast<double>(info.largest_size()) / at.truth;
    // An invalid epoch (a fragment without mass) counts as 100% off.
    const Scores scores =
        at.score(*candidate("aggregation", params), root.split("agg"), 1);
    const double err = scores.invalid > 0 ? 100.0 : scores.abs_err.mean();
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
  scenario::RunOptions options = unrouted_options(
      params, "ablation_delay", "fixes its own unit-latency channel");
  options.network.latency = sim::LatencyModel::constant(1.0);
  const RngStream root(params.seed);
  FixedOverlay at(options, hetero_factory(params.nodes), root);

  FigureReport report = table_report(
      "ablation_delay",
      "Estimation delay under a unit per-hop latency (paper §V conjecture)",
      params, " hop_latency=1 agg_period=2 hops",
      {"algorithm", "delay (hop units)", "messages", "estimate quality %"});
  // One estimation each; the channel measures its delay.
  const auto add = [&](std::string name, std::string_view spec,
                       std::string_view stream) {
    const scenario::SeriesPoint p =
        at.score(*candidate(spec, params), root.split(stream), 1).points[0];
    report.table_rows.push_back(
        {std::move(name), format_double(p.delay, 4),
         human_count(static_cast<double>(p.messages)),
         format_double(support::quality_percent(p.estimate, at.truth), 4)});
  };
  add("HopsSampling", "hops_sampling", "hs");
  add("Aggregation (" + std::to_string(params.agg_rounds) + " rounds)",
      "aggregation", "agg");
  add("Sample&Collide (l=" + std::to_string(params.sc_collisions) + ")",
      "sample_collide", "sc");
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
  FixedOverlay at(options, hetero_factory(params.nodes), root);

  FigureReport report = table_report(
      "ablation_structured",
      "Identifier-based interval density vs the generic schemes (cost of "
      "generality)",
      params, " runs=" + std::to_string(params.estimations) + " leafset=16",
      {"algorithm", "applicability", "mean |error| %", "mean msgs/run"});

  const auto add = [&](const std::string& name, const std::string& scope,
                       const Scores& scores) {
    report.table_rows.push_back({name, scope,
                                 format_double(scores.abs_err.mean(), 3),
                                 human_count(scores.messages.mean())});
  };
  {
    // Interval density polls from a fresh random peer per run, on
    // identifiers drawn from their own stream.
    RngStream ids_rng = root.split("ids");
    const est::IdentifierSpace ids(at.sim.graph(), ids_rng);
    const est::IntervalDensity density({.leafset = 16});
    RngStream rng = root.split("density");
    Scores scores;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      scores.add(density.estimate_once(at.sim, ids,
                                       at.sim.graph().random_alive(rng)),
                 at.truth);
    }
    add("Interval density (k=16)", "structured overlays only", scores);
  }
  add("Sample&Collide (l=" + std::to_string(params.sc_collisions) + ")",
      "any overlay",
      at.score(*candidate("sample_collide", params), root.split("sc"),
               params.estimations));
  add("HopsSampling", "any overlay",
      at.score(*candidate("hops_sampling", params), root.split("hs"),
               params.estimations));
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
  FixedOverlay at(options, hetero_factory(params.nodes), root);

  FigureReport report = table_report(
      "ablation_polling",
      "Polling class: flat reply probability [2],[6] vs HopsSampling's "
      "distance-graded schedule",
      params, " runs=" + std::to_string(params.estimations),
      {"variant", "mean error %", "mean |error| %", "mean replies",
       "mean msgs/run"});

  // The concrete pollers: the reply count is not on est::Estimator.
  const auto add = [&](const std::string& name, const auto& poller,
                       RngStream rng) {
    Scores scores;
    support::RunningStats replies;
    for (std::size_t i = 0; i < params.estimations; ++i) {
      const auto r = poller.run_once(at.sim, at.initiator, rng);
      scores.add(r.estimate, at.truth);
      replies.add(static_cast<double>(r.replies));
    }
    report.table_rows.push_back(
        {name, format_double(scores.signed_err.mean(), 3),
         format_double(scores.abs_err.mean(), 3),
         format_double(replies.mean(), 5),
         human_count(scores.messages.mean())});
  };
  for (const double p : {0.01, 0.05, 0.25}) {
    add("flat polling p=" + format_double(p, 3),
        est::FlatPolling({.reply_probability = p}),
        root.split("flat", static_cast<std::uint64_t>(p * 1000)));
  }
  add("HopsSampling (graded)", est::HopsSampling({}), root.split("hs"));
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
  FixedOverlay at(options, hetero_factory(params.nodes), root);
  const std::size_t samples = 30 * at.sim.graph().size();

  FigureReport report = table_report(
      "ablation_samplers",
      "Uniform-sampling back-ends: T-walk vs Metropolis-Hastings vs naive "
      "fixed-length walk",
      params, " samples/variant=" + std::to_string(samples),
      {"sampler", "chi2/df (1 = uniform)", "mean msgs/sample"});
  // Each sampler draws `samples` node ids from its own stream.
  const auto add = [&](const std::string& name, const char* stream,
                       auto&& draw) {
    RngStream rng = root.split(stream);
    const std::uint64_t before = at.sim.meter().total();
    const double chi2 =
        chi2_per_df(at.sim, samples, [&] { return draw(rng); });
    const double msgs = static_cast<double>(at.sim.meter().since(before)) /
                        static_cast<double>(samples);
    report.table_rows.push_back(
        {name, format_double(chi2, 4), format_double(msgs, 4)});
  };
  const est::SampleCollide sc({.timer = params.sc_timer, .collisions = 1});
  const std::uint64_t hops = 80;
  add("T-walk (T=" + format_double(params.sc_timer, 3) + ")", "twalk",
      [&](RngStream& rng) {
        return sc.sample(at.sim, at.initiator, rng).node;
      });
  add("Metropolis-Hastings (" + std::to_string(hops) + " hops)", "mh",
      [&](RngStream& rng) {
        return est::metropolis_hastings_walk(at.sim, at.initiator, hops, rng);
      });
  add("simple walk (" + std::to_string(hops) + " hops, biased)", "simple",
      [&](RngStream& rng) {
        return est::simple_walk(at.sim, at.initiator, hops, rng);
      });
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
  const scenario::ScenarioRunner runner(
      scenario::oscillating_script(params.nodes, 4, 0.25),
      hetero_factory(params.nodes), params.seed);

  // Both candidates through the unified interface: one atomic, one epoched.
  options.estimations = params.estimations;
  const scenario::Series sc_series =
      runner.run(*candidate("sample_collide", params), options, 0);
  options.estimations = 0;
  options.rounds_per_unit = 1.0;
  const scenario::Series agg_series =
      runner.run(*candidate("aggregation", params), options, 0);

  FigureReport report = dynamic_report(
      {sc_series, agg_series}, "Time", 1.0,
      {{"Sample&Collide oneShot", {}, {}, 's'},
       {"Aggregation epochs", {}, {}, 'a'}});
  report.id = "ablation_oscillating";
  report.title =
      "Flash-crowd oscillation (+/-25% x4): Sample&Collide vs Aggregation "
      "tracking";
  report.params = "nodes=" + std::to_string(params.nodes) +
                  " l=" + std::to_string(params.sc_collisions) +
                  " agg_rounds=" + std::to_string(params.agg_rounds) +
                  " seed=" + std::to_string(params.seed) +
                  delivery_suffix(options);
  report.plot.y_label = "Size";
  report.notes = {
      "Sample&Collide mean tracking error: " +
          format_double(100.0 * tracking_stats({sc_series}).error.mean(), 3) +
          "%",
      "Aggregation mean tracking error:    " +
          format_double(100.0 * tracking_stats({agg_series}).error.mean(), 3) +
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

/// Epochs per sweep cell: full epochs are expensive; 3 suffice for a table
/// row.
std::size_t epoch_runs(const FigureParams& params) {
  return std::max<std::size_t>(1, std::min<std::size_t>(3, params.estimations));
}

/// The protocols ported to the delivery channel, in comparison order.
constexpr Candidate kLossCandidates[] = {
    {"Sample&Collide", "sample_collide", "estimator"},
    {"HopsSampling", "hops_sampling", "estimator"},
    {"Random Tour", "random_tour", "estimator"},
    {"Flat Polling", "flat_polling:p=0.05", "estimator"},
    {"Aggregation", "aggregation", "estimator"},
};
constexpr double kLossRates[] = {0.0, 0.05, 0.2};

/// One column of a channel sweep: the delivery layer and the topology every
/// candidate runs under in that column.
struct SweepColumn {
  std::string label;
  sim::NetworkConfig network;
  topo::TopologyConfig topology;
};

/// One (candidate, column) cell of a channel sweep. Streams are split per
/// CANDIDATE, not per cell: every column sees the same initiator and the
/// same estimator randomness, so column differences isolate the channel's
/// effect (a hop-reliable walk protocol reports the identical estimate at
/// every loss rate).
Scores run_loss_cell(const net::Graph& graph, const FigureParams& params,
                     const Candidate& row, const SweepColumn& column,
                     const RngStream& root, std::uint64_t candidate_index) {
  const std::unique_ptr<est::Estimator> estimator =
      candidate(row.spec, params);
  scenario::RunOptions options = replica_options(params);
  options.network = column.network;
  options.topology = column.topology;
  FixedOverlay at(options, graph, root, candidate_index);
  const std::size_t runs = estimator->mode() == est::Estimator::Mode::kPoint
                               ? params.estimations
                               : epoch_runs(params);
  return at.score(*estimator, root.split(row.stream, candidate_index), runs);
}

/// A channel-sweep figure as a row. A loss sweep (`latency` set) crosses
/// kLossRates with one per-hop latency model; a topology sweep runs each
/// (label, topo spec) variant over the ideal base channel, so column
/// differences isolate the per-link model.
struct ChannelSweep {
  std::string_view id;
  std::string_view title;
  std::optional<sim::LatencyModel> latency;
  std::vector<std::pair<std::string_view, std::string_view>> topologies;
  std::vector<std::string_view> notes;
};

const std::vector<ChannelSweep>& channel_sweeps() {
  static const std::vector<ChannelSweep> sweeps = {
      {"ext_loss_accuracy",
       "Estimator accuracy under unreliable delivery (loss 0 / 5% / 20%)",
       sim::LatencyModel::constant(1.0),
       {},
       {"polls degrade most: dropped spreads shrink coverage and dropped "
        "replies deepen the under-estimation the paper already observes",
        "walk protocols survive via per-hop ARQ (S&C) or hop-reliable "
        "forwarding (Random Tour): accuracy holds, messages and delay pay",
        "Aggregation masks exchanges with a dropped push/pull (mass stays "
        "conserved), so a fixed-length epoch converges less at higher loss"}},
      {"ext_loss_delay",
       "Measured estimation delay under exp(50) per-hop latency and loss",
       sim::LatencyModel::exponential(50.0),
       {},
       {"measured counterpart of the paper's §V delay conjecture: "
        "HopsSampling's parallel spread beats Aggregation's synchronized "
        "rounds, and both beat Sample&Collide's sequential samples",
        "loss adds timeout waits: sequential protocols absorb every wait "
        "into their critical path, parallel spreads only the per-round "
        "maximum"}},
      // Region sweep at the default class mix: more regions = more
      // inter-region links paying the loss penalty, plus longer
      // propagation paths.
      {"ext_topo_accuracy",
       "Estimator accuracy on clustered overlays (region sweep, per-link "
       "class loss + inter-region penalty)",
       std::nullopt,
       {{"flat", "topo:flat"},
        {"1 region", "topo:clustered,regions=1,penalty=0"},
        {"4 regions", "topo:clustered,regions=4"},
        {"16 regions", "topo:clustered,regions=16"}},
       {"per-link loss is class- and region-dependent: walk protocols "
        "(per-hop ARQ / hop-reliable) keep their estimates and pay in "
        "messages; polls lose coverage on lossy mobile edges",
        "more regions -> a larger inter-region link fraction pays the "
        "penalty, so effective loss grows with the region count"}},
      // Mobile-fraction sweep at fixed geometry: access latency and jitter
      // grow with the mobile share, so measured delay orders the protocols
      // as the paper's §V conjecture predicts — now under a heterogeneous
      // network. No datacenter share anywhere: only the mobile fraction
      // varies, so column differences are the treatment and nothing else.
      {"ext_topo_delay",
       "Measured estimation delay vs mobile-peer fraction (per-link "
       "propagation + access latency)",
       std::nullopt,
       {{"all broadband", "topo:clustered,mix=0:1:0"},
        {"mobile 30%", "topo:clustered,mix=0:0.7:0.3"},
        {"mobile 80%", "topo:clustered,mix=0:0.2:0.8"}},
       {"delay = propagation (distance) + both endpoints' access terms; a "
        "growing mobile share inflates every link touching a mobile peer",
        "sequential walk protocols absorb every slow link into their "
        "critical path; parallel spreads pay only per-round maxima"}},
  };
  return sweeps;
}

/// Every ported protocol crossed with every column of the spec's sweep,
/// each cell on its own copy of one shared overlay with seed-split streams
/// (byte-identical at any thread count). The sweep fixes the channel per
/// cell, so --net (and, for a topology sweep, --topo) is a hard error.
FigureReport channel_sweep(const FigureSpec& spec, const FigureParams& params) {
  const ChannelSweep& sweep = *std::find_if(
      channel_sweeps().begin(), channel_sweeps().end(),
      [&](const ChannelSweep& row) { return row.id == spec.id; });
  const std::string id(sweep.id);
  const bool loss = sweep.latency.has_value();
  const std::string kind = loss ? "loss sweep" : "topology sweep";
  if (!params.net.empty()) {
    throw std::invalid_argument(
        id + ": --net conflicts with this figure's own " + kind +
        " (the sweep fixes the channel per cell); drop the flag");
  }
  if (!loss && !params.topo.empty()) {
    throw std::invalid_argument(
        id + ": --topo conflicts with this figure's own " + kind +
        " (the sweep fixes the topology per cell); drop the flag");
  }
  (void)unrouted_options(params, id);  // a loss sweep rejects --topo
  std::vector<SweepColumn> columns;
  if (loss) {
    for (const double rate : kLossRates) {
      sim::NetworkConfig net;
      net.loss = rate;
      net.latency = *sweep.latency;
      columns.push_back({format_double(rate, 3), net, {}});
    }
  }
  for (const auto& [label, topology] : sweep.topologies) {
    columns.push_back(
        {std::string(label), {}, topo::TopologyConfig::parse(topology)});
  }

  const RngStream root(params.seed);
  RngStream graph_rng = root.split("graph");
  const net::Graph graph = build_hetero(params.nodes, graph_rng);
  const std::size_t n_candidates = std::size(kLossCandidates);
  const std::size_t n_columns = columns.size();
  const ParallelReplicaRunner pool(params.threads);
  const auto cells =
      pool.map<Scores>(n_candidates * n_columns, [&](std::size_t i) {
        return run_loss_cell(graph, params, kLossCandidates[i / n_columns],
                             columns[i % n_columns], root,
                             static_cast<std::uint64_t>(i / n_columns));
      });

  FigureReport report = table_report(
      id, std::string(sweep.title), params,
      " runs/cell=" + std::to_string(params.estimations) +
          " epoch-runs/cell=" + std::to_string(epoch_runs(params)) +
          (loss ? " latency=" + sweep.latency->describe() : "") +
          " timeout=" + format_double(sim::NetworkConfig{}.timeout) +
          " retries=" + std::to_string(sim::NetworkConfig{}.retries),
      {"algorithm", loss ? "loss" : "topology", "mean error %",
       "mean |error| %", "invalid", "mean msgs", "mean delay"});
  for (std::size_t c = 0; c < n_candidates; ++c) {
    for (std::size_t v = 0; v < n_columns; ++v) {
      const Scores& cell = cells[c * n_columns + v];
      report.table_rows.push_back(
          {std::string(kLossCandidates[c].label), columns[v].label,
           format_double(cell.signed_err.mean(), 3),
           format_double(cell.abs_err.mean(), 3),
           std::to_string(cell.invalid), human_count(cell.messages.mean()),
           format_double(cell.delay.mean(), 4)});
    }
  }
  report.notes.assign(sweep.notes.begin(), sweep.notes.end());
  if (!loss) {
    for (const SweepColumn& column : columns) {
      report.notes.push_back(column.label + " = " +
                             column.topology.canonical());
    }
  }
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
       "hops_sampling", "static", comparison_table,
       {.nodes = 100000, .estimations = 20}},
      {"ablation_estimators",
       "Ablation: quadratic vs maximum-likelihood collision estimators",
       "sample_collide", "static", comparison_table,
       {.nodes = 100000, .estimations = 20, .sc_collisions = 200}},
      {"ablation_homogeneous",
       "Ablation: heterogeneous vs homogeneous overlays (paper SIV-A remark)",
       "", "static", comparison_table,
       {.nodes = 50000, .estimations = 20}},
      {"ablation_baselines",
       "Ablation: Random Tour + naive Inverted Birthday vs Sample&Collide",
       "", "static", comparison_table, {.nodes = 20000, .estimations = 20}},
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
       "", "static", channel_sweep, {.nodes = 5000, .estimations = 10}},
      {"ext_loss_delay",
       "Extension: measured estimation delay under exp(50) latency and "
       "loss (the paper's SV conjecture, measured)",
       "", "static", channel_sweep, {.nodes = 5000, .estimations = 5}},
      {"ext_topo_accuracy",
       "Extension: estimator accuracy on clustered overlays (region sweep, "
       "per-link class loss + inter-region penalty)",
       "", "static", channel_sweep, {.nodes = 2000, .estimations = 10}},
      {"ext_topo_delay",
       "Extension: measured estimation delay vs mobile-peer fraction "
       "(per-link propagation + access latency)",
       "", "static", channel_sweep, {.nodes = 2000, .estimations = 5}},
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

std::string with_paper_params(std::string_view text,
                              const FigureParams& params, bool smooth_hs) {
  est::EstimatorSpec spec = est::EstimatorSpec::parse(text);
  if (spec.name == "sample_collide") {
    spec.set_default("l", std::to_string(params.sc_collisions));
    spec.set_default("T", obs::json_number(params.sc_timer));
  } else if (spec.name == "aggregation" || spec.name == "aggregation_suite") {
    spec.set_default("rounds", std::to_string(params.agg_rounds));
  } else if (spec.name == "hops_sampling" && smooth_hs) {
    spec.set_default("last_k", std::to_string(params.last_k));
  }
  return spec.canonical();
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
