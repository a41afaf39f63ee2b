// Trace workload registry + matrix integration: spec parsing is strict
// (unknown models/keys are hard errors), workload_by_name resolves scripts
// AND traces, every registry estimator runs against the trace workloads,
// and the report is byte-identical at any thread count (the acceptance
// gate for the trace subsystem).
#include "p2pse/trace/workloads.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "p2pse/est/registry.hpp"
#include "p2pse/harness/figures.hpp"
#include "p2pse/scenario/scenarios.hpp"

namespace p2pse::trace {
namespace {

TEST(TraceSpec, UnknownModelIsAHardError) {
  EXPECT_THROW((void)build_trace("weibul", 100), std::invalid_argument);
  EXPECT_THROW((void)build_trace("", 100), std::invalid_argument);
}

TEST(TraceSpec, UnknownKeyIsAHardError) {
  EXPECT_THROW((void)build_trace("weibull,shap=0.5", 100),
               std::invalid_argument);
  // Substrings of valid keys must not pass either.
  EXPECT_THROW((void)build_trace("weibull,ration=5", 100),
               std::invalid_argument);
  EXPECT_THROW((void)build_trace("exponential,shape=0.5", 100),
               std::invalid_argument);
}

TEST(TraceSpec, MalformedValuesAreHardErrors) {
  EXPECT_THROW((void)build_trace("weibull,shape=abc", 100),
               std::invalid_argument);
  EXPECT_THROW((void)build_trace("weibull,seed=1.5", 100),
               std::invalid_argument);
  EXPECT_THROW((void)build_trace("weibull,shape", 100),
               std::invalid_argument);
}

TEST(TraceSpec, KeysFlowIntoTheGenerator) {
  const ChurnTrace short_run = build_trace("exponential,duration=100", 200);
  EXPECT_DOUBLE_EQ(short_run.duration, 100.0);
  EXPECT_EQ(short_run.initial_sessions, 200u);
  const ChurnTrace a = build_trace("exponential,seed=3", 100);
  const ChurnTrace b = build_trace("exponential,seed=4", 100);
  EXPECT_NE(a.events.size(), b.events.size());
}

TEST(TraceSpec, EveryListedModelBuilds) {
  for (const TraceModelInfo& model : trace_model_infos()) {
    if (model.name == "file") continue;  // needs a path, covered below
    SCOPED_TRACE(std::string(model.name));
    const ChurnTrace trace =
        build_trace(std::string(model.name) + ",duration=50", 100);
    EXPECT_NO_THROW(trace.validate());
    EXPECT_EQ(trace.initial_sessions, 100u);
  }
}

TEST(TraceSpec, FileModelRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "p2pse_workload_test.csv";
  const ChurnTrace original = build_trace("weibull,duration=100", 150);
  original.save_file(path);
  const ChurnTrace reloaded = build_trace("file=" + path, 9999);
  // The file's own initial size wins, not the caller's nodes.
  EXPECT_EQ(reloaded.initial_sessions, 150u);
  EXPECT_EQ(reloaded.events.size(), original.events.size());
}

TEST(TraceSpec, FileModelAcceptsPathsContainingCommas) {
  // file= consumes the whole remainder of the spec — a legal filename with
  // a comma must not be split by the key=value grammar.
  const std::string path = testing::TempDir() + "p2pse,comma,trace.csv";
  build_trace("exponential,duration=50", 80).save_file(path);
  const ChurnTrace reloaded = build_trace("file=" + path, 9999);
  EXPECT_EQ(reloaded.initial_sessions, 80u);
}

TEST(Workloads, WorkloadByNameResolvesScriptsAndTraces) {
  const auto script = scenario::workload_by_name("growing", 1000);
  EXPECT_EQ(script->name(), "growing");
  EXPECT_FALSE(script->initial_size().has_value());

  const auto traced = scenario::workload_by_name("trace:diurnal", 500);
  EXPECT_EQ(traced->name(), "trace:diurnal");
  ASSERT_TRUE(traced->initial_size().has_value());
  EXPECT_EQ(*traced->initial_size(), 500u);
  EXPECT_GT(traced->duration(), 0.0);

  EXPECT_THROW((void)scenario::workload_by_name("nope", 100),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::workload_by_name("trace:nope", 100),
               std::invalid_argument);
}

TEST(Workloads, UnknownScenarioHintsOnlyWhatItsResolverAccepts) {
  // script_by_name takes script names alone, so its error must not offer a
  // trace spec; workload_by_name takes both and says so.
  const auto message = [](auto&& resolve) -> std::string {
    try {
      resolve();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "no error";
  };
  EXPECT_EQ(
      message([] { (void)scenario::script_by_name("trace:weibull", 10); }),
            "unknown scenario 'trace:weibull' (valid: static, catastrophic, "
            "growing, shrinking, oscillating)");
  EXPECT_EQ(message([] { (void)scenario::workload_by_name("nope", 10); }),
            "unknown scenario 'nope' (valid: static, catastrophic, growing, "
            "shrinking, oscillating, or a trace workload 'trace:MODEL,...')");
}

harness::MatrixOptions trace_matrix(const std::string& estimator,
                                    const std::string& workload) {
  harness::MatrixOptions options;
  options.estimator = estimator;
  options.scenario = workload;
  // The trace workloads below run 200 time units: 0.5 rounds/unit = 100
  // gossip rounds = 2 epochs at the default 50-round epoch length.
  options.rounds_per_unit = 0.5;
  options.params.nodes = 300;
  options.params.estimations = 4;
  options.params.replicas = 2;
  options.params.seed = 9;
  options.params.threads = 2;
  return options;
}

// The ISSUE acceptance gate: every registered estimator crossed with the
// three trace workload families.
TEST(Workloads, EveryEstimatorRunsOnEveryTraceWorkloadFamily) {
  const char* workloads[] = {
      "trace:weibull,shape=0.5,duration=200",
      "trace:diurnal,amplitude=0.8,duration=200",
      "trace:flashcrowd,crowd_time=60,exodus_time=140,duration=200",
  };
  for (const auto& estimator : est::EstimatorRegistry::global().names()) {
    for (const char* workload : workloads) {
      SCOPED_TRACE(estimator + " x " + workload);
      const harness::FigureReport report =
          harness::run_matrix(trace_matrix(estimator, workload));
      ASSERT_EQ(report.series.size(), 3u);  // truth + 2 replicas
      EXPECT_FALSE(report.series[0].y.empty());
      EXPECT_FALSE(report.raw_rows.empty());
      for (const auto& row : report.raw_rows) {
        for (const double v : row) EXPECT_TRUE(std::isfinite(v));
      }
    }
  }
}

TEST(Workloads, MatrixReportIsByteIdenticalAcrossThreadCounts) {
  harness::MatrixOptions one = trace_matrix(
      "sample_collide:l=10", "trace:weibull,duration=200");
  one.params.replicas = 4;
  harness::MatrixOptions many = one;
  one.params.threads = 1;
  many.params.threads = 4;
  const harness::FigureReport a = harness::run_matrix(one);
  const harness::FigureReport b = harness::run_matrix(many);
  ASSERT_EQ(a.raw_rows.size(), b.raw_rows.size());
  for (std::size_t i = 0; i < a.raw_rows.size(); ++i) {
    for (std::size_t c = 0; c < a.raw_rows[i].size(); ++c) {
      EXPECT_EQ(a.raw_rows[i][c], b.raw_rows[i][c]);  // bit-exact
    }
  }
  EXPECT_EQ(a.params, b.params);
}

TEST(Workloads, FileTraceOverridesNodesInTheMatrix) {
  const std::string path = testing::TempDir() + "p2pse_matrix_replay.csv";
  build_trace("exponential,duration=100", 120).save_file(path);
  harness::MatrixOptions options =
      trace_matrix("random_tour", "trace:file=" + path);
  options.params.nodes = 5000;  // must be ignored in favor of the trace's 120
  const harness::FigureReport report = harness::run_matrix(options);
  ASSERT_FALSE(report.series[0].y.empty());
  EXPECT_NEAR(report.series[0].y.front(), 120.0, 30.0);
  EXPECT_NE(report.params.find("nodes=120"), std::string::npos)
      << report.params;
}

TEST(Workloads, TraceFigureSpecsAreRegistered) {
  for (const char* id : {"trace_weibull", "trace_diurnal",
                         "trace_flashcrowd"}) {
    SCOPED_TRACE(id);
    const harness::FigureSpec* spec = harness::find_figure(id);
    ASSERT_NE(spec, nullptr);
    harness::FigureParams params = spec->defaults;
    params.nodes = 250;
    params.estimations = 3;
    params.replicas = 2;
    const harness::FigureReport report = harness::run_figure(*spec, params);
    EXPECT_FALSE(report.series.empty());
    EXPECT_FALSE(report.raw_rows.empty());
  }
}

}  // namespace
}  // namespace p2pse::trace
