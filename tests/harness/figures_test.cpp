// Smoke-level reproduction of every figure generator at reduced scale.
// Full-scale runs live in bench/; these tests assert the generators run,
// produce non-empty series/tables, and that headline shapes hold. All
// generators are reached through the declarative spec table (run_figure),
// exactly as the bench binaries reach them.
#include "p2pse/harness/figures.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace p2pse::harness {
namespace {

FigureParams small_params() {
  FigureParams p;
  p.nodes = 3000;
  p.seed = 7;
  p.estimations = 12;
  p.replicas = 2;
  p.sc_collisions = 30;
  p.agg_rounds = 40;
  p.last_k = 5;
  return p;
}

double series_mean(const support::Series& s) {
  double acc = 0.0;
  for (const double v : s.y) acc += v;
  return s.y.empty() ? 0.0 : acc / static_cast<double>(s.y.size());
}

TEST(FigureSpecs, TableCoversEveryPaperFigureAndAblation) {
  EXPECT_GE(figure_specs().size(), 31u);
  for (const auto& spec : figure_specs()) {
    EXPECT_NE(spec.generate, nullptr) << spec.id;
    EXPECT_FALSE(spec.what.empty()) << spec.id;
  }
  EXPECT_NE(find_figure("fig01"), nullptr);
  EXPECT_NE(find_figure("fig18"), nullptr);
  EXPECT_NE(find_figure("table1"), nullptr);
  EXPECT_EQ(find_figure("fig99"), nullptr);
}

TEST(FigureSpecs, UnknownIdThrowsListingKnownIds) {
  try {
    (void)run_figure("fig99", small_params());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fig01"), std::string::npos);
  }
}

TEST(Figures, ScStaticProducesTwoSeriesNearHundred) {
  const FigureReport r = run_figure("fig01", small_params());
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].y.size(), 12u);
  EXPECT_NEAR(series_mean(r.series[0]), 100.0, 30.0);
  EXPECT_NEAR(series_mean(r.series[1]), 100.0, 20.0);
  EXPECT_FALSE(r.notes.empty());
}

TEST(Figures, ScStaticRecordsRawSeriesForCsvExport) {
  FigureParams p = small_params();
  p.estimations = 5;
  const FigureReport r = run_figure("fig01", p);
  ASSERT_EQ(r.raw_columns.size(), 6u);
  EXPECT_EQ(r.raw_columns[0], "replica");
  EXPECT_EQ(r.raw_columns[5], "valid");
  // replicas x estimations rows, each
  // (replica, index, truth, estimate, msgs, valid).
  EXPECT_EQ(r.raw_rows.size(), p.replicas * p.estimations);
  for (const auto& row : r.raw_rows) {
    ASSERT_EQ(row.size(), 6u);
    EXPECT_GT(row[4], 0.0);  // every estimate costs messages
    EXPECT_EQ(row[5], 1.0);  // static overlay: every estimate is valid
  }
}

TEST(Figures, HsStaticUnderestimates) {
  FigureParams p = small_params();
  p.estimations = 15;
  const FigureReport r = run_figure("fig03", p);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_LT(series_mean(r.series[0]), 105.0);
  EXPECT_GT(series_mean(r.series[0]), 40.0);
}

TEST(Figures, AggStaticConvergesToHundred) {
  FigureParams p = small_params();
  p.estimations = 60;  // rounds
  const FigureReport r = run_figure("fig05", p);
  ASSERT_EQ(r.series.size(), p.replicas);
  for (const auto& s : r.series) {
    ASSERT_GE(s.y.size(), 50u);
    EXPECT_NEAR(s.y.back(), 100.0, 3.0);  // converged by the last round
    EXPECT_LT(s.y.front(), 50.0);         // far from converged at round 1
  }
}

TEST(Figures, ScaleFreeDegreesReportsPowerLaw) {
  const FigureReport r = run_figure("fig07", small_params());
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_GT(r.series[0].x.size(), 10u);
  EXPECT_TRUE(r.plot.log_x);
  EXPECT_TRUE(r.plot.log_y);
}

TEST(Figures, ScaleFreeCompareHasThreeSeries) {
  FigureParams p = small_params();
  p.estimations = 6;
  const FigureReport r = run_figure("fig08", p);
  ASSERT_EQ(r.series.size(), 3u);
  for (const auto& s : r.series) EXPECT_EQ(s.y.size(), 6u);
  // Aggregation stays accurate on scale-free graphs.
  EXPECT_NEAR(series_mean(r.series[2]), 100.0, 10.0);
}

TEST(Figures, ScDynamicAllKinds) {
  FigureParams p = small_params();
  p.estimations = 10;
  for (const auto id : {"fig09", "fig10", "fig11"}) {
    const FigureReport r = run_figure(id, p);
    ASSERT_EQ(r.series.size(), 1u + p.replicas);  // truth + replicas
    EXPECT_EQ(r.series[0].name, "Real network size");
    EXPECT_EQ(r.series[0].y.size(), 10u);
  }
}

TEST(Figures, ScDynamicTracksShrinkage) {
  FigureParams p = small_params();
  p.estimations = 10;
  p.replicas = 1;
  const FigureReport r = run_figure("fig11", p);
  const auto& truth = r.series[0].y;
  const auto& est = r.series[1].y;
  ASSERT_GE(est.size(), 8u);
  // Later estimates must be visibly smaller than early ones.
  EXPECT_LT(est.back(), est.front());
  EXPECT_NEAR(est.back(), truth.back(), 0.5 * truth.back());
}

TEST(Figures, HsDynamicRuns) {
  FigureParams p = small_params();
  p.estimations = 10;
  const FigureReport r = run_figure("fig13", p);
  ASSERT_EQ(r.series.size(), 1u + p.replicas);
  EXPECT_EQ(r.series[1].y.size(), 10u);
}

TEST(Figures, AggDynamicRuns) {
  FigureParams p = small_params();
  p.nodes = 1500;
  p.agg_rounds = 25;
  const FigureReport r = run_figure("fig16", p);
  ASSERT_EQ(r.series.size(), 1u + p.replicas);
  // 10 rounds/unit * 1000 units / 25 rounds per epoch = 400 epochs.
  EXPECT_GT(r.series[1].y.size(), 100u);
}

TEST(Figures, Table1HasFourRows) {
  FigureParams p = small_params();
  p.estimations = 6;
  const FigureReport r = run_figure("table1", p);
  EXPECT_TRUE(r.series.empty());
  ASSERT_EQ(r.table_rows.size(), 4u);
  ASSERT_EQ(r.table_columns.size(), 8u);
  EXPECT_EQ(r.table_columns[5], "overhead (bytes)");
  EXPECT_EQ(r.table_columns[6], "max node load");
  // Each row carries a non-empty bytes and max-load cell.
  for (const auto& row : r.table_rows) {
    ASSERT_EQ(row.size(), 8u);
    EXPECT_FALSE(row[5].empty());
    EXPECT_FALSE(row[6].empty());
  }
}

TEST(Figures, AblationLSweepShowsSublinearCost) {
  FigureParams p = small_params();
  p.estimations = 3;
  const FigureReport r = run_figure("ablation_sc_l_sweep", p);
  ASSERT_EQ(r.table_rows.size(), 4u);
  // Cost ratio l=200 vs l=10 must be far below 20x (sqrt scaling).
  const double ratio = std::stod(r.table_rows.back()[3]);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 8.0);
}

TEST(Figures, AblationTimerSweepShowsBiasDecay) {
  FigureParams p = small_params();
  p.nodes = 400;
  const FigureReport r = run_figure("ablation_sc_timer_sweep", p);
  ASSERT_EQ(r.table_rows.size(), 5u);
  const double chi_small_t = std::stod(r.table_rows.front()[1]);
  const double chi_large_t = std::stod(r.table_rows.back()[1]);
  EXPECT_LT(chi_large_t, chi_small_t);
  EXPECT_LT(chi_large_t, 1.5);
}

TEST(Figures, AblationOracleRemovesBias) {
  FigureParams p = small_params();
  p.estimations = 10;
  const FigureReport r = run_figure("ablation_hs_oracle", p);
  ASSERT_EQ(r.table_rows.size(), 2u);
  const double gossip_err = std::stod(r.table_rows[0][1]);
  const double oracle_err = std::stod(r.table_rows[1][1]);
  EXPECT_LT(std::abs(oracle_err), std::abs(gossip_err));
  // Oracle coverage is 100%.
  EXPECT_NEAR(std::stod(r.table_rows[1][3]), 100.0, 0.5);
}

TEST(Figures, AblationEstimatorsProducesBothRows) {
  FigureParams p = small_params();
  p.estimations = 4;
  const FigureReport r = run_figure("ablation_estimators", p);
  ASSERT_EQ(r.table_rows.size(), 2u);
  EXPECT_EQ(r.table_rows[0][0], "quadratic");
  EXPECT_EQ(r.table_rows[1][0], "MLE");
}

TEST(Figures, AblationHomogeneousCoversBothOverlays) {
  FigureParams p = small_params();
  p.estimations = 4;
  const FigureReport r = run_figure("ablation_homogeneous", p);
  ASSERT_EQ(r.table_rows.size(), 6u);  // 2 overlays x 3 algorithms
}

TEST(Figures, AblationBaselinesCoversBothGraphs) {
  FigureParams p = small_params();
  p.nodes = 1500;
  p.estimations = 4;
  const FigureReport r = run_figure("ablation_baselines", p);
  ASSERT_EQ(r.table_rows.size(), 6u);  // 2 graphs x 3 algorithms
}

TEST(Figures, AblationCyclonShowsHealing) {
  FigureParams p = small_params();
  const FigureReport r = run_figure("ablation_cyclon", p);
  ASSERT_EQ(r.table_rows.size(), 2u);
  const double static_largest = std::stod(r.table_rows[0][1]);
  const double cyclon_largest = std::stod(r.table_rows[1][1]);
  EXPECT_GE(cyclon_largest, static_largest);
  EXPECT_GT(cyclon_largest, 99.5);
  // Healed overlay -> near-exact Aggregation.
  EXPECT_LT(std::stod(r.table_rows[1][3]), 2.0);
}

TEST(Figures, AblationDelayRanksHopsSamplingFirst) {
  FigureParams p = small_params();
  p.sc_collisions = 20;
  const FigureReport r = run_figure("ablation_delay", p);
  ASSERT_EQ(r.table_rows.size(), 3u);
  const double hs = std::stod(r.table_rows[0][1]);
  const double agg = std::stod(r.table_rows[1][1]);
  const double sc = std::stod(r.table_rows[2][1]);
  EXPECT_LT(hs, agg);
  EXPECT_LT(agg, sc);
}

TEST(Figures, AblationDelayRefusesNetNamingItsOwnChannel) {
  FigureParams p = small_params();
  p.net = "net:loss=0.1";
  try {
    (void)run_figure("ablation_delay", p);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ablation_delay: --net is not supported by this figure; it "
                 "fixes its own unit-latency channel (drop the flag)");
  }
}

TEST(Figures, AblationStructuredIsCheapest) {
  FigureParams p = small_params();
  p.estimations = 6;
  const FigureReport r = run_figure("ablation_structured", p);
  ASSERT_EQ(r.table_rows.size(), 3u);
  EXPECT_EQ(r.table_rows[0][1], "structured overlays only");
}

TEST(Figures, AblationPollingShowsReplyImplosion) {
  FigureParams p = small_params();
  p.estimations = 4;
  const FigureReport r = run_figure("ablation_polling", p);
  ASSERT_EQ(r.table_rows.size(), 4u);
  // Flat p=0.25 replies >> HopsSampling replies.
  EXPECT_GT(std::stod(r.table_rows[2][3]), std::stod(r.table_rows[3][3]));
}

TEST(Figures, AblationSamplersOrdersUniformity) {
  FigureParams p = small_params();
  p.nodes = 600;
  const FigureReport r = run_figure("ablation_samplers", p);
  ASSERT_EQ(r.table_rows.size(), 3u);
  const double twalk = std::stod(r.table_rows[0][1]);
  const double naive = std::stod(r.table_rows[2][1]);
  EXPECT_LT(twalk, 1.5);
  EXPECT_GT(naive, 2.0);
}

TEST(Figures, AblationOscillatingTracksBothAlgorithms) {
  FigureParams p = small_params();
  p.nodes = 2000;
  p.estimations = 20;
  p.sc_collisions = 30;
  p.agg_rounds = 30;
  const FigureReport r = run_figure("ablation_oscillating", p);
  ASSERT_EQ(r.series.size(), 3u);
  EXPECT_EQ(r.series[0].name, "Real network size");
  EXPECT_EQ(r.series[0].y.size(), 20u);
  EXPECT_GT(r.series[2].y.size(), 10u);  // aggregation epochs
}

TEST(Figures, ReportsPrintWithoutCrashing) {
  FigureParams p = small_params();
  p.estimations = 4;
  std::ostringstream out;
  print_report(out, run_figure("fig01", p));
  print_report(out, run_figure("table1", p));
  EXPECT_GT(out.str().size(), 200u);
}

}  // namespace
}  // namespace p2pse::harness
