#include "p2pse/trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace p2pse::trace {
namespace {

constexpr double kPi = 3.14159265358979323846;

[[noreturn]] void bad_config(const std::string& what) {
  throw std::invalid_argument("trace generator: " + what);
}

void require_positive(double value, const char* what) {
  if (!(value > 0.0 && std::isfinite(value))) {
    bad_config(std::string(what) + " must be finite and > 0, got " +
               std::to_string(value));
  }
}

/// An arrival rate: negative derives the stationary rate, anything else
/// must be finite (NaN or infinity would never advance the arrival clock).
void require_finite_rate(double rate, const char* what) {
  if (!std::isfinite(rate)) {
    bad_config(std::string(what) + " must be finite, got " +
               std::to_string(rate));
  }
}

/// One session: join < 0 marks a member alive at t=0 (no join event);
/// leave >= duration marks a right-censored session (no leave event).
struct Session {
  double join = -1.0;
  double leave = 0.0;
};

/// Turns a session list into a validated trace. Session ids are vector
/// indices, so the `initial` prefix maps onto ids 0..initial-1 as the
/// ChurnTrace contract requires. Event times are made strictly increasing
/// (deterministic epsilon nudges) because simultaneous events — e.g. a mass
/// exodus — would otherwise fail the duplicate-timestamp validation.
ChurnTrace compile(std::string name, double duration, std::uint64_t initial,
                   const std::vector<Session>& sessions) {
  ChurnTrace trace;
  trace.name = std::move(name);
  trace.duration = duration;
  trace.initial_sessions = initial;
  trace.events.reserve(2 * sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const Session& session = sessions[i];
    if (session.join >= 0.0) {
      trace.events.push_back(
          {session.join, TraceEvent::Kind::kJoin, static_cast<std::uint64_t>(i)});
    }
    if (session.leave < duration) {
      trace.events.push_back({std::max(session.leave, session.join),
                              TraceEvent::Kind::kLeave,
                              static_cast<std::uint64_t>(i)});
    }
  }
  std::sort(trace.events.begin(), trace.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.session != b.session) return a.session < b.session;
              // Zero-length session: its join must precede its leave.
              return a.kind == TraceEvent::Kind::kJoin &&
                     b.kind == TraceEvent::Kind::kLeave;
            });
  const double epsilon = duration * 1e-12;
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    if (trace.events[i].time <= trace.events[i - 1].time) {
      trace.events[i].time = trace.events[i - 1].time + epsilon;
    }
  }
  // A large simultaneous batch (mass exodus near the end of the run) can
  // accumulate enough epsilon to cross `duration`; since times are
  // monotone, the overflow is a suffix — drop it as right-censored.
  while (!trace.events.empty() && trace.events.back().time > duration) {
    trace.events.pop_back();
  }
  trace.validate();
  return trace;
}

/// Appends the `count` members alive at t=0, lifetimes drawn fresh from
/// `law`. One uniform per session, filled in a single batched draw and
/// transformed through the same inverse CDF the scalar loop applied, so the
/// stream (and the trace) are bit-identical to the per-call path.
void add_initial_sessions(std::vector<Session>& sessions, std::uint64_t count,
                          const Lifetime& law, support::RngStream& rng) {
  std::vector<double> uniforms(count);
  rng.fill_uniform(uniforms);
  for (std::uint64_t i = 0; i < count; ++i) {
    sessions.push_back({-1.0, law.sample_from(uniforms[i])});
  }
}

/// Appends Poisson(rate) arrivals over [from, to) with i.i.d. lifetimes.
template <typename LifetimeFn>
void add_poisson_arrivals(std::vector<Session>& sessions, double from,
                          double to, double rate, const LifetimeFn& lifetime,
                          support::RngStream& rng) {
  if (rate <= 0.0) return;
  double t = from;
  while (true) {
    t += rng.exponential(rate);
    if (t >= to) break;
    sessions.push_back({t, t + lifetime(rng)});
  }
}

}  // namespace

double Lifetime::mean() const {
  switch (law) {
    case Law::kExponential:
      require_positive(mean_lifetime, "mean lifetime");
      return mean_lifetime;
    case Law::kWeibull:
      require_positive(shape, "Weibull shape");
      require_positive(scale, "Weibull scale");
      return scale * std::tgamma(1.0 + 1.0 / shape);
    case Law::kPareto:
      require_positive(shape, "Pareto alpha");
      require_positive(scale, "Pareto x_min");
      if (shape <= 1.0) {
        bad_config("Pareto alpha <= 1 has no finite mean lifetime; pass an "
                   "explicit arrival rate");
      }
      return shape * scale / (shape - 1.0);
  }
  bad_config("unknown lifetime law");
}

double Lifetime::sample_from(double u) const {
  // Mirrors sample() exactly: uniform_real_open0() there is 1.0 - u here,
  // and each law applies the identical floating-point expression (the
  // exponential keeps the intermediate rate = 1/mean division) so batched
  // and scalar draws agree bitwise.
  const double u_open0 = 1.0 - u;
  switch (law) {
    case Law::kExponential: {
      require_positive(mean_lifetime, "mean lifetime");
      const double rate = 1.0 / mean_lifetime;
      return -std::log(u_open0) / rate;
    }
    case Law::kWeibull:
      require_positive(shape, "Weibull shape");
      require_positive(scale, "Weibull scale");
      return scale * std::pow(-std::log(u_open0), 1.0 / shape);
    case Law::kPareto:
      require_positive(shape, "Pareto alpha");
      require_positive(scale, "Pareto x_min");
      return scale * std::pow(u_open0, -1.0 / shape);
  }
  bad_config("unknown lifetime law");
}

double Lifetime::sample(support::RngStream& rng) const {
  switch (law) {
    case Law::kExponential:
      require_positive(mean_lifetime, "mean lifetime");
      return rng.exponential(1.0 / mean_lifetime);
    case Law::kWeibull: {
      require_positive(shape, "Weibull shape");
      require_positive(scale, "Weibull scale");
      return scale * std::pow(-std::log(rng.uniform_real_open0()),
                              1.0 / shape);
    }
    case Law::kPareto: {
      require_positive(shape, "Pareto alpha");
      require_positive(scale, "Pareto x_min");
      return scale * std::pow(rng.uniform_real_open0(), -1.0 / shape);
    }
  }
  bad_config("unknown lifetime law");
}

ChurnTrace generate_sessions(const SessionWorkloadConfig& config,
                             support::RngStream rng) {
  require_positive(config.duration, "duration");
  require_finite_rate(config.arrival_rate, "arrival rate");
  const double rate = config.arrival_rate < 0.0
                          ? static_cast<double>(config.initial_sessions) /
                                config.lifetime.mean()
                          : config.arrival_rate;
  std::vector<Session> sessions;
  sessions.reserve(static_cast<std::size_t>(config.initial_sessions) +
                   static_cast<std::size_t>(rate * config.duration));

  support::RngStream init_rng = rng.split("initial-lifetimes");
  const auto draw = [&config](support::RngStream& r) {
    return config.lifetime.sample(r);
  };
  add_initial_sessions(sessions, config.initial_sessions, config.lifetime,
                       init_rng);
  support::RngStream arrival_rng = rng.split("arrivals");
  add_poisson_arrivals(sessions, 0.0, config.duration, rate, draw,
                       arrival_rng);

  const char* label = config.lifetime.law == Lifetime::Law::kExponential
                          ? "exponential"
                          : config.lifetime.law == Lifetime::Law::kWeibull
                                ? "weibull"
                                : "pareto";
  return compile(label, config.duration, config.initial_sessions, sessions);
}

ChurnTrace generate_diurnal(const DiurnalConfig& config,
                            support::RngStream rng) {
  require_positive(config.duration, "duration");
  require_positive(config.period, "period");
  require_positive(config.mean_lifetime, "mean lifetime");
  require_finite_rate(config.base_rate, "diurnal base rate");
  if (!(config.amplitude >= 0.0 && config.amplitude <= 1.0)) {
    bad_config("diurnal amplitude must be in [0, 1], got " +
               std::to_string(config.amplitude));
  }
  const double base =
      config.base_rate < 0.0
          ? static_cast<double>(config.initial_sessions) / config.mean_lifetime
          : config.base_rate;

  std::vector<Session> sessions;
  support::RngStream init_rng = rng.split("initial-lifetimes");
  Lifetime initial_law;
  initial_law.mean_lifetime = config.mean_lifetime;
  add_initial_sessions(sessions, config.initial_sessions, initial_law,
                       init_rng);

  // Inhomogeneous Poisson process by thinning (Lewis & Shedler): candidate
  // arrivals at the peak rate, each kept with probability lambda(t)/peak.
  support::RngStream arrival_rng = rng.split("arrivals");
  const double peak = base * (1.0 + config.amplitude);
  if (peak > 0.0) {
    double t = 0.0;
    while (true) {
      t += arrival_rng.exponential(peak);
      if (t >= config.duration) break;
      const double lambda =
          base * (1.0 + config.amplitude *
                            std::sin(2.0 * kPi * t / config.period));
      if (arrival_rng.uniform_real() * peak < lambda) {
        sessions.push_back(
            {t, t + arrival_rng.exponential(1.0 / config.mean_lifetime)});
      }
    }
  }
  return compile("diurnal", config.duration, config.initial_sessions,
                 sessions);
}

ChurnTrace generate_flash_crowd(const FlashCrowdConfig& config,
                                support::RngStream rng) {
  require_positive(config.duration, "duration");
  require_positive(config.mean_lifetime, "mean lifetime");
  require_positive(config.crowd_mean_lifetime, "crowd mean lifetime");
  require_positive(config.crowd_ramp, "crowd ramp");
  if (!(config.crowd_fraction >= 0.0 && std::isfinite(config.crowd_fraction))) {
    bad_config("crowd fraction must be finite and >= 0");
  }
  if (!(config.exodus_fraction >= 0.0 && config.exodus_fraction <= 1.0)) {
    bad_config("exodus fraction must be in [0, 1], got " +
               std::to_string(config.exodus_fraction));
  }
  if (!(config.crowd_time >= 0.0 && config.crowd_time < config.duration)) {
    bad_config("crowd time must lie inside [0, duration)");
  }
  if (!(config.exodus_time > 0.0 && config.exodus_time < config.duration)) {
    bad_config("exodus time must lie inside (0, duration)");
  }

  std::vector<Session> sessions;
  support::RngStream init_rng = rng.split("initial-lifetimes");
  Lifetime initial_law;
  initial_law.mean_lifetime = config.mean_lifetime;
  add_initial_sessions(sessions, config.initial_sessions, initial_law,
                       init_rng);
  // Stationary baseline arrivals across the whole run.
  const auto baseline_lifetime = [&config](support::RngStream& r) {
    return r.exponential(1.0 / config.mean_lifetime);
  };
  support::RngStream baseline_rng = rng.split("baseline-arrivals");
  add_poisson_arrivals(
      sessions, 0.0, config.duration,
      static_cast<double>(config.initial_sessions) / config.mean_lifetime,
      baseline_lifetime, baseline_rng);

  // The flash crowd: ~crowd_fraction * initial short-lived visitors arriving
  // inside [crowd_time, crowd_time + ramp).
  support::RngStream crowd_rng = rng.split("crowd");
  const double crowd_rate =
      config.crowd_fraction * static_cast<double>(config.initial_sessions) /
      config.crowd_ramp;
  add_poisson_arrivals(
      sessions, config.crowd_time,
      std::min(config.crowd_time + config.crowd_ramp, config.duration),
      crowd_rate,
      [&config](support::RngStream& r) {
        return r.exponential(1.0 / config.crowd_mean_lifetime);
      },
      crowd_rng);

  // Mass exodus: every session alive at exodus_time leaves then with
  // probability exodus_fraction (its scheduled leave is truncated).
  support::RngStream exodus_rng = rng.split("exodus");
  for (Session& session : sessions) {
    const bool alive = session.join < config.exodus_time &&
                       session.leave > config.exodus_time;
    if (alive && exodus_rng.bernoulli(config.exodus_fraction)) {
      session.leave = config.exodus_time;
    }
  }
  return compile("flashcrowd", config.duration, config.initial_sessions,
                 sessions);
}

}  // namespace p2pse::trace
