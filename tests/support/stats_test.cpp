#include "p2pse/support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace p2pse::support {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

TEST(RunningStats, MatchesNaiveComputation) {
  const std::vector<double> data{1.5, 2.5, -3.0, 7.0, 0.0, 4.25};
  RunningStats s;
  double sum = 0.0;
  for (const double v : data) {
    s.add(v);
    sum += v;
  }
  const double mean = sum / static_cast<double>(data.size());
  double ss = 0.0;
  for (const double v : data) ss += (v - mean) * (v - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), ss / static_cast<double>(data.size()), 1e-12);
  EXPECT_EQ(s.min(), -3.0);
  EXPECT_EQ(s.max(), 7.0);
}

TEST(RunningStats, IsNumericallyStableForLargeOffsets) {
  RunningStats s;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) s.add(offset + (i % 2));
  EXPECT_NEAR(s.mean(), offset + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats left, right, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10.0;
    (i < 25 ? left : right).add(v);
    all.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  RunningStats b = a;
  b.merge(empty);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), 2.0);
  RunningStats c = empty;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.mean(), 2.0);
}

TEST(Summarize, ComputesAllFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p25, 25.75, 1e-9);
  EXPECT_NEAR(s.p75, 75.25, 1e-9);
  EXPECT_GT(s.p95, 90.0);
}

TEST(Summarize, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(QualityPercent, Basics) {
  EXPECT_NEAR(quality_percent(50.0, 100.0), 50.0, 1e-12);
  EXPECT_NEAR(quality_percent(100.0, 100.0), 100.0, 1e-12);
  EXPECT_EQ(quality_percent(5.0, 0.0), 0.0);
}

TEST(ChiSquareUniform, PerfectlyUniformIsZero) {
  EXPECT_EQ(chi_square_uniform({10, 10, 10, 10}), 0.0);
}

TEST(ChiSquareUniform, DetectsSkew) {
  EXPECT_GT(chi_square_uniform({100, 0, 0, 0}), 100.0);
}

TEST(ChiSquareUniform, EmptyAndZeroTotals) {
  EXPECT_EQ(chi_square_uniform({}), 0.0);
  EXPECT_EQ(chi_square_uniform({0, 0, 0}), 0.0);
}

}  // namespace
}  // namespace p2pse::support
