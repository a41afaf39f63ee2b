#include "p2pse/support/log_bins.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace p2pse::support {
namespace {

TEST(LogBinned, EmptyHistogram) {
  EXPECT_TRUE(log_binned({}).empty());
  const std::vector<std::uint64_t> all_zero(5, 0);
  EXPECT_TRUE(log_binned(all_zero).empty());
}

TEST(LogBinned, SkipsZeroValues) {
  std::vector<std::uint64_t> counts(3, 0);
  counts[0] = 100;
  counts[2] = 5;
  const auto bins = log_binned(counts);
  std::uint64_t total = 0;
  for (const auto& b : bins) total += b.count;
  EXPECT_EQ(total, 5u);
}

TEST(LogBinned, BinsCoverValues) {
  std::vector<std::uint64_t> counts(1001, 0);
  for (std::uint64_t v : {1, 2, 3, 10, 100, 1000}) ++counts[v];
  const auto bins = log_binned(counts, 4);
  std::uint64_t total = 0;
  for (const auto& b : bins) {
    EXPECT_GT(b.upper, b.lower);
    EXPECT_GE(b.center, b.lower);
    EXPECT_LE(b.center, b.upper);
    total += b.count;
  }
  EXPECT_EQ(total, 6u);
}

TEST(LogBinned, MergesValuesThatShareABin) {
  // At 1 bin per decade, 2..9 share [1, 10) with 1, and 10..99 share the
  // next decade; the unused values in between open no empty bins.
  std::vector<std::uint64_t> counts(51, 0);
  counts[1] = 1;
  counts[2] = 2;
  counts[9] = 3;
  counts[50] = 4;
  const auto bins = log_binned(counts, 1);
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].lower, 1.0);
  EXPECT_EQ(bins[0].count, 6u);
  EXPECT_EQ(bins[1].count, 4u);
}

TEST(LogBinned, InvalidBinsPerDecade) {
  std::vector<std::uint64_t> counts(6, 0);
  counts[5] = 1;
  EXPECT_TRUE(log_binned(counts, 0).empty());
  EXPECT_TRUE(log_binned(counts, -2).empty());
}

TEST(PowerLawSlope, RecoversKnownExponent) {
  // Build an exact power law: count(d) ~ d^-2.5 over two decades.
  std::vector<std::uint64_t> counts(301, 0);
  for (std::uint64_t d = 1; d <= 300; ++d) {
    counts[d] = static_cast<std::uint64_t>(
        1e7 * std::pow(static_cast<double>(d), -2.5));
  }
  const auto bins = log_binned(counts, 8);
  const double slope = power_law_slope(bins);
  EXPECT_NEAR(slope, -2.5, 0.3);
}

TEST(PowerLawSlope, DegenerateInputs) {
  EXPECT_EQ(power_law_slope({}), 0.0);
  std::vector<std::uint64_t> counts(6, 0);
  counts[5] = 10;
  EXPECT_EQ(power_law_slope(log_binned(counts)), 0.0);  // single bin
}

}  // namespace
}  // namespace p2pse::support
