#include "p2pse/support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace p2pse::support {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  RunningStats rs;
  for (const double v : values) rs.add(v);
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  s.p25 = at(0.25);
  s.median = at(0.50);
  s.p75 = at(0.75);
  s.p95 = at(0.95);
  return s;
}

double quality_percent(double estimate, double truth) noexcept {
  if (truth == 0.0) return 0.0;
  return 100.0 * estimate / truth;
}

double chi_square_uniform(const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) return 0.0;
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  if (total == 0) return 0.0;
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  double chi2 = 0.0;
  for (const std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

}  // namespace p2pse::support
