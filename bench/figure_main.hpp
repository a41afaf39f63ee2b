#pragma once
// The command line of the report binaries: the figure binaries (each a
// one-line lookup into harness::figure_specs()), p2pse_matrix and
// p2pse_trace replay. One flag table, kReportFlags, drives the flags they
// all accept and the shared part of their --help; each binary adds only its
// own rows. run_report is the one sequence that runs a report and writes
// its side files. Unknown flags are hard errors (a typo'd flag silently
// falling back to its default would corrupt a sweep).

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "p2pse/est/registry.hpp"
#include "p2pse/harness/figures.hpp"
#include "p2pse/obs/rusage.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/obs/telemetry.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/topo/topology.hpp"
#include "p2pse/trace/workloads.hpp"

namespace p2pse::harness {

/// The flags of every report binary. The report is byte-identical at any
/// --threads and --sim-threads; telemetry flags only add side files.
inline constexpr support::Flag kReportFlags[] = {
    {"nodes", "N", "overlay size"},
    {"seed", "S", "root seed"},
    {"estimations", "E", "x-axis length / run count"},
    {"replicas", "R", "independent replicas, one curve each"},
    {"l", "L", "Sample&Collide collision target"},
    {"T", "t", "Sample&Collide timer"},
    {"agg-rounds", "R", "Aggregation epoch length"},
    {"last-k", "K", "HopsSampling lastKruns window"},
    {"threads", "N", "replica fan-out width, 0 = all hardware threads"},
    {"sim-threads", "N", "intra-replica workers: 1 = sequential, 0 = auto"},
    {"csv", "PATH", "also write the per-replica series as CSV to PATH"},
    {"net", "SPEC", "delivery layer, e.g. net:loss=0.05,latency=exp:50"},
    {"topo", "SPEC", "per-link topology, e.g. topo:clustered,regions=8"},
    {"sizes", "SPEC", "wire sizes for the bytes columns, e.g. sizes:header=48"},
    {"stats-json", "PATH", "versioned JSON run summary (`sim` and `host`)"},
    {"trace-json", "PATH", "Chrome trace-event span profile"},
    {"progress", "", "wall-clock-gated heartbeat on stderr (1 line/s max)"},
    {"flight-record", "N", "last N sim events to p2pse-flight.json on error"},
};

/// The flags of the two drivers of harness::run_matrix, p2pse_matrix and
/// p2pse_trace replay, on top of kReportFlags.
inline constexpr support::Flag kMatrixFlags[] = {
    {"estimator", "SPEC",
     "registry spec (default sample_collide); keys it leaves\n"
     "out come from --l, --T, --agg-rounds and --last-k"},
    {"rounds-per-unit", "R", "epoch-mode gossip pacing (default 10)"},
};

/// The --list flag of p2pse_matrix and p2pse_trace (print_axes).
inline constexpr support::Flag kListFlags[] = {
    {"list", "", "print every estimator, scenario and trace/topology model"},
};

/// Calls `f(flag, field)` for every kReportFlags row that sets a
/// FigureParams field: the one map from flag names to fields.
template <class Params, class F>
void for_each_param_flag(Params& p, F&& f) {
  f("nodes", p.nodes);
  f("seed", p.seed);
  f("estimations", p.estimations);
  f("replicas", p.replicas);
  f("l", p.sc_collisions);
  f("T", p.sc_timer);
  f("agg-rounds", p.agg_rounds);
  f("last-k", p.last_k);
  f("threads", p.threads);
  f("sim-threads", p.sim_threads);
  f("net", p.net);
  f("topo", p.topo);
  f("sizes", p.sizes);
}

/// Maps the shared CLI flags onto `defaults`. An overlay needs at least two
/// nodes and a report at least one replica; smaller values are hard errors.
inline FigureParams figure_params_from_args(const support::Args& args,
                                            FigureParams defaults) {
  for_each_param_flag(defaults, [&](std::string_view flag, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, double>) {
      field = args.get_double(flag, field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = args.get_string(flag, field);
    } else {
      field = args.get_uint(flag, field);
    }
  });
  if (defaults.nodes < 2) {
    throw std::invalid_argument("--nodes must be >= 2, got " +
                                std::to_string(defaults.nodes));
  }
  if (defaults.replicas == 0) {
    throw std::invalid_argument("--replicas must be >= 1, got 0");
  }
  return defaults;
}

/// The --help default of FigureParams flag `flag` under `defaults` ("" for
/// any other flag, or an empty spec).
inline std::string report_default(const FigureParams& defaults,
                                  std::string_view flag) {
  std::ostringstream out;
  for_each_param_flag(defaults, [&](std::string_view name, const auto& field) {
    if (name == flag) out << field;
  });
  return out.str();
}

/// The defaults of the run_matrix drivers: FigureParams{} at 10000 nodes.
inline FigureParams matrix_defaults() { return {.nodes = 10000}; }

/// The --help default of a run_matrix driver's flag. --last-k has none:
/// HopsSampling smooths only when it is given.
inline std::string matrix_default(std::string_view flag) {
  return flag == "last-k" ? "" : report_default(matrix_defaults(), flag);
}

/// A PATH-valued flag, or std::nullopt when the flag is absent. A bare flag
/// (which Args parses as boolean "true") is a hard error — it must not
/// silently write a file literally named "true".
inline std::optional<std::string> path_from_args(const support::Args& args,
                                                 std::string_view flag) {
  if (!args.has(flag)) return std::nullopt;
  const std::string path = args.get_string(flag, "");
  if (path.empty() || path == "true") {
    throw std::invalid_argument("--" + std::string(flag) +
                                " requires a PATH value");
  }
  return path;
}

/// `path` opened for writing; the error names --`flag`.
inline std::ofstream open_for_writing(const std::string& path,
                                      std::string_view flag) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open --" + std::string(flag) +
                             " path '" + path + "' for writing");
  }
  return out;
}

/// The telemetry side-channel of one CLI run: --stats-json / --trace-json /
/// --progress / --flight-record parsing, the RunTelemetry lifetime, and the
/// side-file writes. Stdout reports stay byte-identical whether or not any
/// flag is set — telemetry only ever adds side files.
struct TelemetryCli {
  std::optional<std::string> stats_path;
  std::optional<std::string> trace_path;
  std::unique_ptr<obs::RunTelemetry> telemetry;

  /// Parses the four flags; the sink exists only when at least one is set.
  static TelemetryCli from_args(const support::Args& args) {
    TelemetryCli cli;
    cli.stats_path = path_from_args(args, "stats-json");
    cli.trace_path = path_from_args(args, "trace-json");
    const bool progress = args.get_bool("progress", false);
    const std::uint64_t flight = args.get_uint("flight-record", 0);
    if (args.has("flight-record") && flight == 0) {
      throw std::invalid_argument(
          "--flight-record requires a positive event count");
    }
    if (cli.stats_path || cli.trace_path || progress || flight > 0) {
      cli.telemetry = std::make_unique<obs::RunTelemetry>();
      if (progress) cli.telemetry->enable_progress();
      if (flight > 0) {
        cli.telemetry->enable_flight(static_cast<std::size_t>(flight));
      }
    }
    return cli;
  }

  /// The sink generators snapshot into (null when telemetry is off).
  [[nodiscard]] obs::RunTelemetry* sink() const noexcept {
    return telemetry.get();
  }

  /// Writes the requested side files. Call once, after the report ran; the
  /// `sim` section is a pure function of the run, the `host` section reads
  /// this process's clocks and peak RSS.
  void write(const FigureReport& report, const FigureParams& params) const {
    if (!telemetry) return;
    if (stats_path) {
      obs::HostStats host;
      host.threads_requested = static_cast<int>(params.threads);
      host.peak_rss_kb = obs::peak_rss_kb();
      host.phase_seconds = telemetry->trace().phase_totals();
      std::ofstream out = open_for_writing(*stats_path, "stats-json");
      out << obs::run_stats_document(
          obs::sim_section(report.id, report.params, telemetry->sim()),
          obs::host_section(host));
    }
    if (trace_path) {
      std::ofstream out = open_for_writing(*trace_path, "trace-json");
      telemetry->trace().write(out);
    }
  }

  /// Best-effort crash dump of the flight ring (the abnormal-exit path:
  /// contract failures in checked builds, or any uncaught error). No-op
  /// unless --flight-record armed a ring and the run recorded into it (a
  /// configuration error fails before any event). Returns true when the
  /// dump file was written.
  bool dump_flight_on_error(const char* argv0) const noexcept {
    const obs::FlightRecorder* flight =
        telemetry ? telemetry->flight() : nullptr;
    if (flight == nullptr) return false;
    const std::uint64_t recorded = flight->recorded();
    if (recorded == 0 || !flight->dump(kFlightDumpPath)) return false;
    std::fprintf(stderr, "%s: flight recorder dumped %llu event(s) to %s\n",
                 argv0, static_cast<unsigned long long>(recorded),
                 kFlightDumpPath);
    return true;
  }

  static constexpr const char* kFlightDumpPath = "p2pse-flight.json";
};

/// The one sequence of every report binary: reads --csv and the telemetry
/// flags, runs `run` on `params` with the telemetry sink installed, writes
/// the CSV and the side files, and prints the report. On any error it dumps
/// the flight ring (when --flight-record armed one) and rethrows.
inline int run_report(
    const support::Args& args, FigureParams params,
    const std::function<FigureReport(const FigureParams&)>& run) {
  TelemetryCli telemetry;
  try {
    const std::optional<std::string> csv_path = path_from_args(args, "csv");
    telemetry = TelemetryCli::from_args(args);
    params.telemetry = telemetry.sink();
    const FigureReport report = run(params);
    if (csv_path) {
      std::ofstream out = open_for_writing(*csv_path, "csv");
      write_csv_file(out, report);
    }
    telemetry.write(report, params);
    print_report(std::cout, report);
    return 0;
  } catch (...) {
    telemetry.dump_flight_on_error(args.program().c_str());
    throw;
  }
}

/// Runs `scenario` through run_matrix under the kMatrixFlags and
/// kReportFlags of `args`: the body of p2pse_matrix and p2pse_trace replay.
inline int matrix_report(const support::Args& args, std::string scenario) {
  MatrixOptions options;
  options.scenario = std::move(scenario);
  options.rounds_per_unit =
      args.get_double("rounds-per-unit", options.rounds_per_unit);
  options.params = figure_params_from_args(args, matrix_defaults());
  options.estimator = with_paper_params(
      args.get_string("estimator", options.estimator), options.params,
      /*smooth_hs=*/args.has("last-k"));
  return run_report(args, options.params, [&](const FigureParams& params) {
    options.params = params;
    return run_matrix(options);
  });
}

/// The --list text of p2pse_matrix and p2pse_trace: every estimator,
/// scripted scenario, trace model and topology model, with its keys.
inline void print_axes() {
  const auto& registry = est::EstimatorRegistry::global();
  std::printf("estimators (--estimator NAME[:key=value,...]):\n");
  for (const auto& name : registry.names()) {
    std::printf("  %-20s keys: %s\n", name.c_str(),
                registry.keys_help(name).c_str());
  }
  std::printf("scripted scenarios (--scenario NAME, replay --workload NAME):"
              "\n ");
  for (const auto name : scenario::scenario_names()) {
    std::printf(" %s", std::string(name).c_str());
  }
  std::printf("\ntrace models (--scenario trace:MODEL[,key=value,...], "
              "synth MODEL[,key=value,...]):\n");
  for (const auto& model : trace::trace_model_infos()) {
    std::printf("  trace:%-14s keys: %s\n      %s\n",
                std::string(model.name).c_str(),
                std::string(model.keys).c_str(),
                std::string(model.what).c_str());
  }
  std::printf("topology models (--topo topo:MODEL[,key=value,...]):\n");
  for (const auto& model : topo::topology_model_infos()) {
    std::printf("  topo:%-15s keys: %s\n      %s\n",
                std::string(model.name).c_str(),
                model.keys.empty() ? "none" : std::string(model.keys).c_str(),
                std::string(model.what).c_str());
  }
}

inline int figure_main(int argc, char** argv, std::string_view figure_id) {
  return support::run_main(argc, argv, [&](const support::Args& args) {
    const FigureSpec* spec = find_figure(figure_id);
    if (spec == nullptr) {
      throw std::invalid_argument("figure '" + std::string(figure_id) +
                                  "' is not in harness::figure_specs()");
    }
    const FigureParams& defaults = spec->defaults;
    if (support::handle_flags(args, spec->what, {kReportFlags},
                              [&](std::string_view flag) {
                                return report_default(defaults, flag);
                              })) {
      return 0;
    }
    return run_report(args, figure_params_from_args(args, defaults),
                      [&](const FigureParams& params) {
                        return run_figure(*spec, params);
                      });
  });
}

}  // namespace p2pse::harness
