#pragma once
// Shared main() body for the figure-reproduction binaries. Every binary is a
// one-line lookup into harness::figure_specs(): the FigureSpec carries the
// paper-default FigureParams, the CLI overlays --nodes/--seed/... on top,
// and the spec's generator family produces the report. Unknown flags are
// hard errors (a typo'd flag silently falling back to its default would
// corrupt a sweep).

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "p2pse/harness/figures.hpp"
#include "p2pse/obs/rusage.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/obs/telemetry.hpp"
#include "p2pse/support/args.hpp"

namespace p2pse::harness {

inline constexpr std::string_view kFigureFlags[] = {
    "nodes",      "seed",   "estimations", "replicas", "l",
    "T",          "agg-rounds", "last-k",  "threads",  "sim-threads",
    "csv",        "net",    "topo",        "sizes",    "stats-json",
    "trace-json", "progress", "flight-record",
};

/// Maps the shared CLI flags onto `params`. Shared by figure_main and the
/// p2pse_matrix driver so every binary speaks the same dialect. An overlay
/// needs at least two nodes and a report at least one replica; smaller
/// values are hard errors.
inline FigureParams figure_params_from_args(const support::Args& args,
                                            FigureParams defaults) {
  FigureParams params = defaults;
  params.nodes = args.get_uint("nodes", params.nodes);
  if (params.nodes < 2) {
    throw std::invalid_argument("--nodes must be >= 2, got " +
                                std::to_string(params.nodes));
  }
  params.seed = args.get_uint("seed", params.seed);
  params.estimations = args.get_uint("estimations", params.estimations);
  params.replicas = args.get_uint("replicas", params.replicas);
  if (params.replicas == 0) {
    throw std::invalid_argument("--replicas must be >= 1, got 0");
  }
  params.sc_collisions = args.get_uint("l", params.sc_collisions);
  params.sc_timer = args.get_double("T", params.sc_timer);
  params.agg_rounds = args.get_uint("agg-rounds", params.agg_rounds);
  params.last_k = args.get_uint("last-k", params.last_k);
  params.threads = args.get_uint("threads", params.threads);
  params.sim_threads = args.get_uint("sim-threads", params.sim_threads);
  params.net = args.get_string("net", params.net);
  params.topo = args.get_string("topo", params.topo);
  params.sizes = args.get_string("sizes", params.sizes);
  return params;
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

/// The --csv PATH value, or std::nullopt when the flag is absent.
inline std::optional<std::string> csv_path_from_args(
    const support::Args& args) {
  return path_from_args(args, "csv");
}

/// The telemetry side-channel of one CLI run: --stats-json / --trace-json /
/// --progress parsing, the RunTelemetry lifetime, and the side-file writes.
/// Stdout reports stay byte-identical whether or not any flag is set —
/// telemetry only ever adds side files.
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
      std::ofstream out(*stats_path);
      if (!out) {
        throw std::runtime_error("cannot open --stats-json path '" +
                                 *stats_path + "' for writing");
      }
      obs::HostStats host;
      host.threads_requested = static_cast<int>(params.threads);
      host.peak_rss_kb = obs::peak_rss_kb();
      host.phase_seconds = telemetry->trace().phase_totals();
      out << obs::run_stats_document(
          obs::sim_section(report.id, report.params, telemetry->sim()),
          obs::host_section(host));
    }
    if (trace_path) {
      std::ofstream out(*trace_path);
      if (!out) {
        throw std::runtime_error("cannot open --trace-json path '" +
                                 *trace_path + "' for writing");
      }
      telemetry->trace().write(out);
    }
  }

  /// Best-effort crash dump of the flight ring (the abnormal-exit path:
  /// contract failures in checked builds, or any uncaught error). No-op
  /// unless --flight-record armed a ring. Returns true when the dump file
  /// was written.
  bool dump_flight_on_error(const char* argv0) const noexcept {
    if (!telemetry || telemetry->flight() == nullptr) return false;
    if (!telemetry->flight()->dump(kFlightDumpPath)) return false;
    std::fprintf(stderr,
                 "%s: flight recorder dumped %llu event(s) to %s\n", argv0,
                 static_cast<unsigned long long>(
                     telemetry->flight()->recorded()),
                 kFlightDumpPath);
    return true;
  }

  static constexpr const char* kFlightDumpPath = "p2pse-flight.json";
};

/// Writes the report's machine-readable series to `path` (--csv PATH).
inline void write_csv_to_path(const FigureReport& report,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open --csv path '" + path +
                             "' for writing");
  }
  write_csv_file(out, report);
}

inline int figure_main(int argc, char** argv, std::string_view figure_id) {
  const FigureSpec* spec = find_figure(figure_id);
  if (!spec) {
    std::fprintf(stderr, "%s: figure '%s' is not in harness::figure_specs()\n",
                 argc > 0 ? argv[0] : "figure_main",
                 std::string(figure_id).c_str());
    return 1;
  }
  TelemetryCli telemetry;
  try {
    const support::Args args(argc, argv);
    const FigureParams& d = spec->defaults;
    if (args.help_requested()) {
      std::printf(
          "%s — %s\n"
          "options:\n"
          "  --nodes N         overlay size (default %zu)\n"
          "  --seed S          root seed (default %llu)\n"
          "  --estimations E   x-axis length / run count (default %zu)\n"
          "  --replicas R      independent curves (default %zu)\n"
          "  --l L             Sample&Collide collision target (default %u)\n"
          "  --T t             Sample&Collide timer (default %.1f)\n"
          "  --agg-rounds R    Aggregation epoch length (default %u)\n"
          "  --last-k K        lastKruns window (default %zu)\n"
          "  --threads N       replica fan-out width, 0 = all hardware "
          "threads (default %zu);\n"
          "                    the report is byte-identical at any value\n"
          "  --sim-threads N   intra-replica workers (sharded topology "
          "embedding); 1 =\n"
          "                    sequential, 0 = auto (hardware / replica "
          "workers); composes\n"
          "                    with --threads without oversubscribing; "
          "byte-identical at\n"
          "                    any value\n"
          "  --csv PATH        also write the per-replica "
          "(time,truth,estimate,messages,valid)\n"
          "                    series as plain CSV to PATH\n"
          "  --net SPEC        delivery layer, e.g. "
          "net:loss=0.05,latency=exp:50,timeout=100\n"
          "                    (keys: loss, latency, jitter, timeout, "
          "retries; default ideal)\n"
          "  --topo SPEC       per-link topology, e.g. "
          "topo:clustered,regions=8,mix=0:0.2:0.8\n"
          "                    (models: flat, classes, clustered; default "
          "flat)\n"
          "  --sizes SPEC      wire-size table for the bytes accounting, "
          "e.g.\n"
          "                    sizes:header=48,walk_step=64 (keys: header + "
          "the 7 message\n"
          "                    classes; pure pricing — counts and draws are "
          "unchanged)\n"
          "  --stats-json PATH versioned JSON run summary: deterministic "
          "`sim` counters\n"
          "                    (byte-identical at any --threads) + `host` "
          "wall-clock/RSS\n"
          "  --trace-json PATH Chrome trace-event span profile "
          "(chrome://tracing, Perfetto)\n"
          "  --progress        wall-clock-gated heartbeat on stderr (max 1 "
          "line/s)\n"
          "  --flight-record N keep a ring of the last N simulator events; "
          "dumped to\n"
          "                    p2pse-flight.json on abnormal exit (e.g. a "
          "checked-build\n"
          "                    contract failure)\n",
          argv[0], std::string(spec->what).c_str(), d.nodes,
          static_cast<unsigned long long>(d.seed), d.estimations, d.replicas,
          d.sc_collisions, d.sc_timer, d.agg_rounds, d.last_k, d.threads);
      return 0;
    }
    args.require_known(std::span<const std::string_view>(kFigureFlags));
    const std::optional<std::string> csv_path = csv_path_from_args(args);
    telemetry = TelemetryCli::from_args(args);
    FigureParams params = figure_params_from_args(args, d);
    params.telemetry = telemetry.sink();
    const FigureReport report = run_figure(*spec, params);
    if (csv_path) write_csv_to_path(report, *csv_path);
    telemetry.write(report, params);
    print_report(std::cout, report);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], error.what());
    telemetry.dump_flight_on_error(argv[0]);
    return 1;
  }
}

}  // namespace p2pse::harness
