#include "p2pse/trace/workloads.hpp"

#include <stdexcept>
#include <utility>

#include "p2pse/support/spec_reader.hpp"
#include "p2pse/trace/cursor.hpp"
#include "p2pse/trace/generators.hpp"

namespace p2pse::trace {
namespace {

support::ParsedSpec parse_spec(std::string_view text) {
  // "file=PATH" consumes the whole remainder: paths may legally contain
  // commas, so the key=value grammar must not split them. Everything else
  // is the shared "MODEL[,key=value,...]" grammar (support::parse_model_spec
  // also enforces the duplicate-key rule).
  constexpr std::string_view kFilePrefix = "file=";
  if (text.substr(0, kFilePrefix.size()) == kFilePrefix) {
    support::ParsedSpec spec;
    spec.name = "file";
    spec.overrides.emplace_back("path",
                                std::string(text.substr(kFilePrefix.size())));
    return spec;
  }
  return support::parse_model_spec(text, "trace spec");
}

}  // namespace

const std::vector<TraceModelInfo>& trace_model_infos() {
  static const std::vector<TraceModelInfo> infos = {
      {"exponential", "mean, arrival, duration, seed",
       "Poisson arrivals, memoryless exponential session lifetimes"},
      {"weibull", "shape, scale, arrival, duration, seed",
       "Poisson arrivals, Weibull lifetimes (shape<1 = heavy-tailed)"},
      {"pareto", "alpha, xmin, arrival, duration, seed",
       "Poisson arrivals, Pareto lifetimes (alpha<=1 needs arrival=...)"},
      {"diurnal", "mean, amplitude, period, base, duration, seed",
       "sine-modulated arrivals (day/night cycle), exponential lifetimes"},
      {"flashcrowd",
       "mean, crowd_time, crowd_ramp, crowd_fraction, crowd_mean, "
       "exodus_time, exodus_fraction, duration, seed",
       "baseline sessions + short-lived crowd burst + mass exodus"},
      {"file", "path", "replay a saved ChurnTrace CSV (trace:file=PATH)"},
  };
  return infos;
}

ChurnTrace build_trace(std::string_view spec_text, std::size_t initial_nodes) {
  const support::ParsedSpec parsed = parse_spec(spec_text);
  const TraceModelInfo& info = support::require_known_model(
      trace_model_infos(), parsed.name, "trace spec");
  // `info.keys` is the list --list also renders.
  const std::string context = "trace spec: " + parsed.name;
  support::require_known_keys(parsed.overrides, info.keys, context);
  // `parsed` outlives the reader, which borrows the override list.
  const support::SpecValueReader reader(context, parsed.overrides);

  if (parsed.name == "file") {
    const std::string path = reader.get_string("path", "");
    if (path.empty()) {
      throw std::invalid_argument(
          "trace spec: file: missing path (trace:file=PATH)");
    }
    return ChurnTrace::load_file(path);
  }

  const double duration = reader.get_double("duration", 1000.0);
  const support::RngStream rng(reader.get_uint("seed", std::uint64_t{1}));
  const auto initial = static_cast<std::uint64_t>(initial_nodes);

  if (parsed.name == "diurnal") {
    DiurnalConfig config;
    config.initial_sessions = initial;
    config.duration = duration;
    config.mean_lifetime = reader.get_double("mean", config.mean_lifetime);
    config.amplitude = reader.get_double("amplitude", config.amplitude);
    config.period = reader.get_double("period", config.period);
    config.base_rate = reader.get_double("base", config.base_rate);
    return generate_diurnal(config, rng);
  }
  if (parsed.name == "flashcrowd") {
    FlashCrowdConfig config;
    config.initial_sessions = initial;
    config.duration = duration;
    config.mean_lifetime = reader.get_double("mean", config.mean_lifetime);
    // Burst/exodus timing defaults scale with the configured duration, so
    // "flashcrowd,duration=200" keeps its shape instead of erroring on
    // absolute times that fall outside the shortened run.
    config.crowd_time = reader.get_double("crowd_time", 0.3 * duration);
    config.crowd_ramp = reader.get_double("crowd_ramp", 0.02 * duration);
    config.crowd_fraction =
        reader.get_double("crowd_fraction", config.crowd_fraction);
    config.crowd_mean_lifetime =
        reader.get_double("crowd_mean", config.crowd_mean_lifetime);
    config.exodus_time = reader.get_double("exodus_time", 0.7 * duration);
    config.exodus_fraction =
        reader.get_double("exodus_fraction", config.exodus_fraction);
    return generate_flash_crowd(config, rng);
  }

  SessionWorkloadConfig config;
  config.initial_sessions = initial;
  config.duration = duration;
  config.arrival_rate = reader.get_double("arrival", config.arrival_rate);
  if (parsed.name == "exponential") {
    config.lifetime.law = Lifetime::Law::kExponential;
    config.lifetime.mean_lifetime =
        reader.get_double("mean", config.lifetime.mean_lifetime);
  } else if (parsed.name == "weibull") {
    config.lifetime.law = Lifetime::Law::kWeibull;
    config.lifetime.shape = reader.get_double("shape", 0.5);
    config.lifetime.scale = reader.get_double("scale", 50.0);
  } else {  // pareto
    config.lifetime.law = Lifetime::Law::kPareto;
    config.lifetime.shape = reader.get_double("alpha", 1.5);
    config.lifetime.scale = reader.get_double("xmin", 20.0);
  }
  return generate_sessions(config, rng);
}

TraceDynamics::TraceDynamics(ChurnTrace trace, std::string name,
                             net::JoinPolicy policy)
    : trace_(std::move(trace)),
      name_(name.empty() ? "trace:" + trace_.name : std::move(name)),
      policy_(policy) {}

std::unique_ptr<scenario::DynamicsCursor> TraceDynamics::bind(
    net::Graph& graph, support::RngStream rng) const {
  return std::make_unique<TraceCursor>(trace_, graph, policy_, rng);
}

std::shared_ptr<const scenario::Dynamics> workload_from_spec(
    std::string_view spec, std::size_t initial_nodes) {
  return std::make_shared<TraceDynamics>(build_trace(spec, initial_nodes),
                                         "trace:" + std::string(spec));
}

}  // namespace p2pse::trace
