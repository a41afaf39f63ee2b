// p2pse_matrix — run ANY registered estimator crossed with ANY scenario at
// any scale, including combinations the paper never plotted (Random Tour
// under catastrophic failures, Interval Density under oscillating flash
// crowds, ...). Replicas fan out over the deterministic parallel runner, so
// the report is byte-identical at any --threads value.
//
//   p2pse_matrix --estimator sample_collide:l=50 --scenario oscillating
//   p2pse_matrix --estimator aggregation_suite:instances=16
//                --scenario shrinking --nodes 50000 --rounds-per-unit 5
//   p2pse_matrix --estimator random_tour --scenario trace:weibull,shape=0.5
//   p2pse_matrix --scenario trace:file=ipfs_sessions.csv --csv replay.csv
//   p2pse_matrix --list
#include <cstdio>
#include <exception>
#include <iostream>
#include <span>

#include "figure_main.hpp"
#include "p2pse/est/registry.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/support/csv.hpp"
#include "p2pse/topo/topology.hpp"
#include "p2pse/trace/workloads.hpp"

namespace {

void print_matrix_axes() {
  const auto& registry = p2pse::est::EstimatorRegistry::global();
  std::printf("estimators (--estimator NAME[:key=value,...]):\n");
  for (const auto& name : registry.names()) {
    std::printf("  %-20s keys: %s\n", name.c_str(),
                registry.keys_help(name).c_str());
  }
  std::printf("scenarios (--scenario NAME):\n ");
  for (const auto name : p2pse::scenario::scenario_names()) {
    std::printf(" %s", std::string(name).c_str());
  }
  std::printf("\n");
  std::printf(
      "trace workloads (--scenario trace:MODEL[,key=value,...]):\n");
  for (const auto& model : p2pse::trace::trace_model_infos()) {
    std::printf("  trace:%-14s keys: %s\n      %s\n",
                std::string(model.name).c_str(),
                std::string(model.keys).c_str(),
                std::string(model.what).c_str());
  }
  std::printf("topology models (--topo topo:MODEL[,key=value,...]):\n");
  for (const auto& model : p2pse::topo::topology_model_infos()) {
    std::printf("  topo:%-15s keys: %s\n      %s\n",
                std::string(model.name).c_str(),
                model.keys.empty() ? "none" : std::string(model.keys).c_str(),
                std::string(model.what).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2pse;
  harness::TelemetryCli telemetry;
  try {
    const support::Args args(argc, argv);
    if (args.help_requested()) {
      std::printf(
          "%s — run any estimator x workload x size combination\n"
          "options:\n"
          "  --estimator SPEC     registry spec, e.g. sample_collide:l=10,T=2\n"
          "  --scenario NAME      static|catastrophic|growing|shrinking|"
          "oscillating,\n"
          "                       or a trace workload: trace:MODEL[,k=v,...]\n"
          "                       (weibull, pareto, exponential, diurnal,\n"
          "                       flashcrowd, file=PATH; see --list)\n"
          "  --nodes N            initial overlay size (default 10000)\n"
          "  --estimations E      point-mode samples over the run (default "
          "100)\n"
          "  --rounds-per-unit R  epoch-mode gossip pacing (default 10)\n"
          "  --replicas R         independent replicas (default 3)\n"
          "  --seed S             root seed (default 42)\n"
          "  --threads N          fan-out width, 0 = hardware threads\n"
          "  --sim-threads N      intra-replica workers (sharded topology "
          "embedding);\n"
          "                       1 = sequential, 0 = auto; byte-identical "
          "at any value\n"
          "  --l/--T/--agg-rounds/--last-k  paper-parameter shorthands\n"
          "  --csv PATH           write per-replica "
          "(time,truth,estimate,messages,valid) CSV\n"
          "  --net SPEC           delivery layer, e.g. "
          "net:loss=0.05,latency=exp:50\n"
          "                       (keys: loss, latency, jitter, timeout, "
          "retries; default ideal)\n"
          "  --topo SPEC          per-link topology, e.g. "
          "topo:clustered,regions=8,mix=0:0.2:0.8\n"
          "                       (models: flat, classes, clustered; default "
          "flat)\n"
          "  --list               print every estimator, scenario, trace "
          "model, and topology model with keys\n"
          "  --stats-json PATH    versioned JSON run summary (deterministic "
          "`sim` section\n"
          "                       + host wall-clock/RSS `host` section)\n"
          "  --trace-json PATH    Chrome trace-event span profile "
          "(chrome://tracing, Perfetto)\n"
          "  --progress           wall-clock-gated heartbeat on stderr (max "
          "1 line/s)\n"
          "  --sizes SPEC         wire-size table for the bytes accounting, "
          "e.g.\n"
          "                       sizes:header=48,walk_step=64 (pure "
          "pricing)\n"
          "  --flight-record N    ring of the last N simulator events, "
          "dumped to\n"
          "                       p2pse-flight.json on abnormal exit\n",
          argv[0]);
      return 0;
    }
    static constexpr std::string_view kFlags[] = {
        "estimator", "scenario", "rounds-per-unit", "list",
        "nodes",     "seed",     "estimations",     "replicas",
        "l",         "T",        "agg-rounds",      "last-k",
        "threads",   "sim-threads", "csv",
        "net",       "topo",     "sizes",           "stats-json",
        "trace-json", "progress", "flight-record",
    };
    args.require_known(std::span<const std::string_view>(kFlags));
    const auto csv_path = harness::csv_path_from_args(args);
    telemetry = harness::TelemetryCli::from_args(args);
    if (args.get_bool("list", false)) {
      print_matrix_axes();
      return 0;
    }

    harness::MatrixOptions options;
    options.estimator = args.get_string("estimator", "sample_collide");
    options.scenario = args.get_string("scenario", "static");
    options.rounds_per_unit = args.get_double("rounds-per-unit", 10.0);
    harness::FigureParams defaults;
    defaults.nodes = 10000;
    options.params = harness::figure_params_from_args(args, defaults);
    options.params.telemetry = telemetry.sink();

    // The paper-parameter shorthands flow into the spec as overrides (an
    // explicit key in --estimator wins).
    est::EstimatorSpec spec = est::EstimatorSpec::parse(options.estimator);
    if (spec.name == "sample_collide") {
      spec.set_default("l", std::to_string(options.params.sc_collisions));
      spec.set_default("T", support::format_double(options.params.sc_timer));
    } else if (spec.name == "aggregation" ||
               spec.name == "aggregation_suite") {
      spec.set_default("rounds",
                       std::to_string(options.params.agg_rounds));
    } else if (spec.name == "hops_sampling" && args.has("last-k")) {
      spec.set_default("last_k", std::to_string(options.params.last_k));
    }
    options.estimator = spec.canonical();

    const harness::FigureReport report = harness::run_matrix(options);
    if (csv_path) harness::write_csv_to_path(report, *csv_path);
    telemetry.write(report, options.params);
    harness::print_report(std::cout, report);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], error.what());
    telemetry.dump_flight_on_error(argv[0]);
    return 1;
  }
}
