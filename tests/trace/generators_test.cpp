// Synthetic generator contract: every model emits a valid trace that is a
// pure function of (config, seed), with the statistical signature it
// advertises (heavy tails, diurnal swing, crowd/exodus shape). Golden
// summary stats pin the exact event counts at a fixed seed so accidental
// changes to the sampling stream are caught.
#include "p2pse/trace/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "p2pse/trace/workloads.hpp"
#include "trace_oracles.hpp"

namespace p2pse::trace {
namespace {

support::RngStream seed(std::uint64_t s = 1) { return support::RngStream(s); }

TEST(Generators, SessionsTraceIsValidAndDeterministic) {
  SessionWorkloadConfig config;
  config.initial_sessions = 400;
  config.duration = 500.0;
  const ChurnTrace a = generate_sessions(config, seed());
  const ChurnTrace b = generate_sessions(config, seed());
  EXPECT_NO_THROW(a.validate());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].session, b.events[i].session);
  }
  const ChurnTrace c = generate_sessions(config, seed(2));
  EXPECT_NE(a.events.size(), c.events.size());  // different seed, different trace
}

TEST(Generators, NonFiniteConfigFieldsAreTypedErrors) {
  // Specs no longer carry these values (the number reader refuses them),
  // but configs built in code still rely on these checks: unchecked,
  // duration=inf stalls the arrival loop and arrival=nan reaches an
  // undefined float-to-size cast.
  const auto sessions = [](auto edit) {
    return [edit](double v) {
      SessionWorkloadConfig config;
      config.initial_sessions = 100;
      edit(config, v);
      (void)generate_sessions(config, seed());
    };
  };
  const auto diurnal = [](auto edit) {
    return [edit](double v) {
      DiurnalConfig config;
      config.initial_sessions = 100;
      edit(config, v);
      (void)generate_diurnal(config, seed());
    };
  };
  const auto crowd = [](auto edit) {
    return [edit](double v) {
      FlashCrowdConfig config;
      config.initial_sessions = 100;
      edit(config, v);
      (void)generate_flash_crowd(config, seed());
    };
  };
  using Law = Lifetime::Law;
  const std::vector<std::pair<const char*, std::function<void(double)>>>
      fields = {
          {"duration", sessions([](auto& c, double v) { c.duration = v; })},
          {"arrival",
           sessions([](auto& c, double v) { c.arrival_rate = v; })},
          {"mean", sessions([](auto& c, double v) {
             c.lifetime.mean_lifetime = v;
           })},
          {"weibull shape", sessions([](auto& c, double v) {
             c.lifetime = {Law::kWeibull, 100.0, v, 50.0};
           })},
          {"weibull scale", sessions([](auto& c, double v) {
             c.lifetime = {Law::kWeibull, 100.0, 0.5, v};
           })},
          {"pareto alpha", sessions([](auto& c, double v) {
             c.lifetime = {Law::kPareto, 100.0, v, 20.0};
           })},
          {"pareto xmin", sessions([](auto& c, double v) {
             c.lifetime = {Law::kPareto, 100.0, 1.5, v};
           })},
          {"amplitude", diurnal([](auto& c, double v) { c.amplitude = v; })},
          {"period", diurnal([](auto& c, double v) { c.period = v; })},
          {"base", diurnal([](auto& c, double v) { c.base_rate = v; })},
          {"crowd_time", crowd([](auto& c, double v) { c.crowd_time = v; })},
          {"crowd_ramp", crowd([](auto& c, double v) { c.crowd_ramp = v; })},
          {"crowd_fraction",
           crowd([](auto& c, double v) { c.crowd_fraction = v; })},
          {"crowd_mean",
           crowd([](auto& c, double v) { c.crowd_mean_lifetime = v; })},
          {"exodus_time",
           crowd([](auto& c, double v) { c.exodus_time = v; })},
          {"exodus_fraction",
           crowd([](auto& c, double v) { c.exodus_fraction = v; })},
      };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& [field, generate] : fields) {
    for (const double value : {std::nan(""), kInf, -kInf}) {
      SCOPED_TRACE(std::string(field) + "=" + std::to_string(value));
      try {
        generate(value);
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind("trace generator: ", 0), 0u)
            << e.what();
      }
    }
  }
}

TEST(Generators, ExponentialStationaryPopulationHoversAroundInitial) {
  SessionWorkloadConfig config;
  config.initial_sessions = 1000;
  config.duration = 1000.0;
  config.lifetime.mean_lifetime = 100.0;
  const TraceSummary summary =
      generate_sessions(config, seed()).summarize();
  // Default arrival rate is the stationary initial/mean = 10 per unit.
  EXPECT_NEAR(summary.mean_alive, 1000.0, 100.0);
  EXPECT_NEAR(summary.mean_session_length, 100.0, 20.0);
}

TEST(Generators, WeibullHeavyTailMedianWellBelowMean) {
  SessionWorkloadConfig config;
  config.initial_sessions = 1000;
  config.duration = 1000.0;
  config.lifetime.law = Lifetime::Law::kWeibull;
  config.lifetime.shape = 0.5;
  config.lifetime.scale = 50.0;
  const TraceSummary summary =
      generate_sessions(config, seed()).summarize();
  // Weibull(k=0.5): median = scale*ln(2)^2 ~ 0.24*scale, mean = 2*scale.
  EXPECT_LT(summary.median_session_length,
            0.5 * summary.mean_session_length);
  EXPECT_GT(summary.completed_sessions, 1000u);
}

TEST(Generators, ParetoWithoutFiniteMeanNeedsExplicitArrivalRate) {
  SessionWorkloadConfig config;
  config.lifetime.law = Lifetime::Law::kPareto;
  config.lifetime.shape = 0.9;  // alpha <= 1: infinite mean
  EXPECT_THROW((void)generate_sessions(config, seed()),
               std::invalid_argument);
  config.arrival_rate = 5.0;  // explicit rate sidesteps the mean
  config.duration = 100.0;
  config.initial_sessions = 100;
  EXPECT_NO_THROW((void)generate_sessions(config, seed()));
}

TEST(Generators, DiurnalArrivalsFollowTheSine) {
  DiurnalConfig config;
  config.initial_sessions = 2000;
  config.duration = 1000.0;
  config.period = 1000.0;  // one full day over the run
  config.amplitude = 1.0;
  config.mean_lifetime = 50.0;
  const ChurnTrace trace = generate_diurnal(config, seed());
  EXPECT_NO_THROW(trace.validate());
  // Joins in the first half (rising sine, rate up to 2x base) must clearly
  // outnumber joins in the second half (rate down to 0).
  std::size_t first_half = 0, second_half = 0;
  for (const TraceEvent& event : trace.events) {
    if (event.kind != TraceEvent::Kind::kJoin) continue;
    (event.time < 500.0 ? first_half : second_half) += 1;
  }
  EXPECT_GT(first_half, 2 * second_half);
}

TEST(Generators, FlashCrowdSwellsThenExodusDrops) {
  FlashCrowdConfig config;
  config.initial_sessions = 1000;
  config.duration = 1000.0;
  config.crowd_time = 300.0;
  config.crowd_fraction = 1.0;
  config.exodus_time = 700.0;
  config.exodus_fraction = 0.5;
  const ChurnTrace trace = generate_flash_crowd(config, seed());
  EXPECT_NO_THROW(trace.validate());
  // Population just before the crowd, at the crowd peak, and across the
  // exodus instant.
  std::size_t before_crowd = 0, peak = 0, before_exodus = 0, after_exodus = 0;
  for (const auto& [time, alive] : oracle::size_trajectory(trace)) {
    if (time <= config.crowd_time) before_crowd = alive;
    if (time <= config.crowd_time + config.crowd_ramp) {
      peak = std::max(peak, alive);
    }
    if (time < config.exodus_time) before_exodus = alive;
    if (time <= config.exodus_time + 1e-6 || after_exodus == 0) {
      after_exodus = alive;
    }
  }
  // ~1000 short-lived visitors arrive within the 20-unit ramp.
  EXPECT_GT(peak, before_crowd + 600);
  // The exodus removes about half the survivors instantaneously.
  EXPECT_LT(after_exodus, static_cast<std::size_t>(
                              0.65 * static_cast<double>(before_exodus)));
}

TEST(Generators, ConfigValidation) {
  SessionWorkloadConfig sessions;
  sessions.duration = -1.0;
  EXPECT_THROW((void)generate_sessions(sessions, seed()),
               std::invalid_argument);

  DiurnalConfig diurnal;
  diurnal.amplitude = 1.5;
  EXPECT_THROW((void)generate_diurnal(diurnal, seed()),
               std::invalid_argument);
  diurnal.amplitude = 0.5;
  diurnal.period = 0.0;
  EXPECT_THROW((void)generate_diurnal(diurnal, seed()),
               std::invalid_argument);

  FlashCrowdConfig crowd;
  crowd.exodus_fraction = 2.0;
  EXPECT_THROW((void)generate_flash_crowd(crowd, seed()),
               std::invalid_argument);
  crowd.exodus_fraction = 0.2;
  crowd.crowd_time = 5000.0;  // outside [0, duration)
  EXPECT_THROW((void)generate_flash_crowd(crowd, seed()),
               std::invalid_argument);
}

// Golden summary stats: every synthetic model at a fixed seed, through the
// same spec path the CLI uses. The exact event counts pin the sampling
// stream — any accidental reordering of RNG draws or change to a default
// knob shows up here before it silently shifts every figure.
TEST(Generators, GoldenSummariesAtFixedSeed) {
  struct Golden {
    const char* spec;
    std::size_t joins, leaves, min_alive, max_alive, final_alive;
    double median_session;
  };
  const Golden goldens[] = {
      {"exponential,duration=400,seed=5", 3186, 3192, 759, 840, 794, 49.53},
      {"weibull,duration=400,seed=5", 3186, 3306, 514, 800, 680, 12.99},
      {"pareto,duration=400,seed=5", 5355, 5428, 569, 1073, 727, 30.44},
      {"diurnal,duration=400,seed=5", 3592, 3505, 650, 1073, 887, 49.52},
      {"flashcrowd,duration=400,seed=5", 2386, 2516, 535, 1512, 670, 56.80},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.spec);
    const TraceSummary summary = build_trace(golden.spec, 800).summarize();
    EXPECT_EQ(summary.joins, golden.joins);
    EXPECT_EQ(summary.leaves, golden.leaves);
    EXPECT_EQ(summary.min_alive, golden.min_alive);
    EXPECT_EQ(summary.max_alive, golden.max_alive);
    EXPECT_EQ(summary.final_alive, golden.final_alive);
    EXPECT_NEAR(summary.median_session_length, golden.median_session, 0.01);
  }
}

TEST(Generators, ExodusAtTheVeryEndDoesNotOverflowDuration) {
  // Regression: the strict-monotonicity epsilon nudges on a mass exodus one
  // ulp before the end of the run used to push the batch past `duration`
  // and fail validation. The overflow suffix is right-censored instead.
  FlashCrowdConfig config;
  config.initial_sessions = 20000;
  config.duration = 200.0;
  config.crowd_time = 60.0;
  config.exodus_time = 199.9999999;
  config.exodus_fraction = 1.0;
  const ChurnTrace trace = generate_flash_crowd(config, seed());
  EXPECT_NO_THROW(trace.validate());
  for (const TraceEvent& event : trace.events) {
    EXPECT_LE(event.time, trace.duration);
  }
}

TEST(Generators, ZeroInitialSessionsBootstrapsFromArrivalsOnly) {
  SessionWorkloadConfig config;
  config.initial_sessions = 0;
  config.duration = 200.0;
  config.arrival_rate = 2.0;
  const ChurnTrace trace = generate_sessions(config, seed());
  EXPECT_NO_THROW(trace.validate());
  const TraceSummary summary = trace.summarize();
  EXPECT_EQ(summary.initial_sessions, 0u);
  EXPECT_GT(summary.joins, 100u);  // ~400 expected
}

TEST(Lifetime, SampleFromMatchesScalarSampleBitwise) {
  // sample(rng) must equal sample_from(rng.uniform_real()) bit-for-bit —
  // the property that lets the generators batch their initial-lifetime
  // draws (fill_uniform + sample_from) without moving any golden trace.
  Lifetime exponential;
  Lifetime weibull;
  weibull.law = Lifetime::Law::kWeibull;
  weibull.shape = 0.5;
  weibull.scale = 120.0;
  Lifetime pareto;
  pareto.law = Lifetime::Law::kPareto;
  pareto.shape = 1.5;
  pareto.scale = 10.0;
  for (const Lifetime& law : {exponential, weibull, pareto}) {
    support::RngStream scalar(4242);
    support::RngStream batched(4242);
    for (int i = 0; i < 500; ++i) {
      const double direct = law.sample(scalar);
      const double transformed = law.sample_from(batched.uniform_real());
      EXPECT_EQ(direct, transformed);
    }
  }
}

}  // namespace
}  // namespace p2pse::trace
