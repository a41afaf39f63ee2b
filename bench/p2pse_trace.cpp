// p2pse_trace — synthesize, inspect, and replay churn traces.
//
//   p2pse_trace synth weibull,shape=0.5 --nodes 10000 --out sessions.csv
//   p2pse_trace info sessions.csv
//   p2pse_trace replay sessions.csv --estimator sample_collide:l=50
//   p2pse_trace replay --workload trace:diurnal,amplitude=0.8 --nodes 5000
//   p2pse_trace --list
//
// `replay` drives the same estimator x workload machinery as p2pse_matrix
// (harness::run_matrix), so it emits the identical report + per-replica CSV
// and stays byte-identical at any --threads value.
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "figure_main.hpp"
#include "p2pse/support/csv.hpp"
#include "p2pse/trace/trace.hpp"

namespace {

using namespace p2pse;

constexpr std::string_view kUsage =
    "synthesize, inspect, and replay churn traces\n"
    "usage: p2pse_trace COMMAND [options] (COMMAND --help lists them)\n"
    "  synth MODEL[,k=v,...]  generate a churn trace as CSV\n"
    "  info PATH              validate a trace and print its statistics\n"
    "  replay [PATH]          run an estimator on a trace or workload";

constexpr support::Flag kSynthFlags[] = {
    {"nodes", "N", "initial sessions (default 10000)"},
    {"out", "PATH", "write the trace here instead of stdout"},
};

constexpr support::Flag kReplayFlags[] = {
    {"workload", "W", "trace:MODEL[,k=v,...] or a scenario instead of a file"},
};

std::string summary_line(const trace::TraceSummary& s) {
  using support::format_double;
  std::string out;
  out += "duration:               " + format_double(s.duration) + "\n";
  out += "initial sessions:       " + std::to_string(s.initial_sessions) + "\n";
  out += "join events:            " + std::to_string(s.joins) + "\n";
  out += "leave events:           " + std::to_string(s.leaves) + "\n";
  out += "size envelope:          [" + std::to_string(s.min_alive) + ", " +
         std::to_string(s.max_alive) + "], final " +
         std::to_string(s.final_alive) + "\n";
  out += "mean population:        " + format_double(s.mean_alive, 4) + "\n";
  out += "events per time unit:   " + format_double(s.events_per_unit, 4) +
         "\n";
  out += "churn rate (ev/unit/node): " + format_double(s.churn_rate, 6) +
         "\n";
  out += "completed sessions:     " + std::to_string(s.completed_sessions) +
         "\n";
  out += "mean session length:    " +
         format_double(s.mean_session_length, 4) + "\n";
  out += "median session length:  " +
         format_double(s.median_session_length, 4) + "\n";
  return out;
}

int run_synth(const support::Args& args) {
  if (support::handle_flags(
          args, "synth MODEL[,k=v,...]: generate a churn trace as CSV",
          {kSynthFlags})) {
    return 0;
  }
  if (args.positional().size() < 2) {
    throw std::invalid_argument("synth requires a model spec, e.g. "
                                "'synth weibull,shape=0.5' (see p2pse_trace "
                                "--list)");
  }
  const std::optional<std::string> out = harness::path_from_args(args, "out");
  const std::size_t nodes = args.get_uint("nodes", 10000);
  const trace::ChurnTrace trace =
      trace::build_trace(args.positional()[1], nodes);
  if (out) {
    trace.save_file(*out);
    std::printf("wrote %zu events to %s\n", trace.events.size(),
                out->c_str());
  } else {
    trace.write_csv(std::cout);
  }
  return 0;
}

int run_info(const support::Args& args) {
  if (support::handle_flags(
          args, "info PATH: validate a trace file and print summary stats",
          {})) {
    return 0;
  }
  if (args.positional().size() < 2) {
    throw std::invalid_argument("info requires a trace file path");
  }
  const std::string& path = args.positional()[1];
  const trace::ChurnTrace trace = trace::ChurnTrace::load_file(path);
  std::printf("trace:                  %s (%s)\n", path.c_str(),
              trace.name.c_str());
  std::printf("%s", summary_line(trace.summarize()).c_str());
  return 0;
}

int run_replay(const support::Args& args) {
  if (support::handle_flags(
          args,
          "replay PATH | --workload W: run an estimator on a workload",
          {kReplayFlags, harness::kMatrixFlags, harness::kReportFlags},
          harness::matrix_default)) {
    return 0;
  }
  const bool file = args.positional().size() >= 2;
  if (file == args.has("workload")) {
    throw std::invalid_argument(
        "replay takes a trace file path or --workload SPEC, not both");
  }
  std::string scenario = file ? "trace:file=" + args.positional()[1]
                              : args.get_string("workload", "");
  if (scenario.empty() || scenario == "true") {
    throw std::invalid_argument("--workload requires a spec value");
  }
  return harness::matrix_report(args, std::move(scenario));
}

int run(const support::Args& args) {
  const std::string command =
      args.positional().empty() ? "" : args.positional().front();
  if (command == "synth") return run_synth(args);
  if (command == "info") return run_info(args);
  if (command == "replay") return run_replay(args);
  if (!command.empty()) {
    throw std::invalid_argument("unknown command '" + command +
                                "' (expected synth, info, or replay)");
  }
  if (support::handle_flags(args, kUsage, {harness::kListFlags})) return 0;
  if (!args.get_bool("list", false)) {
    throw std::invalid_argument(
        "expected a command: synth, info, or replay (see --help)");
  }
  harness::print_axes();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_main(argc, argv, run);
}
