#pragma once
// Small statistics kit: numerically stable running moments (Welford),
// order statistics, and accuracy metrics used throughout the evaluation.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace p2pse::support {

/// Numerically stable running mean/variance accumulator (Welford's method).
class RunningStats {
 public:
  void add(double x) noexcept;
  /// Merges another accumulator (parallel reduction; Chan et al. update).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary of a sample: moments plus selected quantiles.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Computes the full summary of a sample.
[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// "Quality %" as plotted by the paper: 100 * estimate / truth.
[[nodiscard]] double quality_percent(double estimate, double truth) noexcept;

/// Pearson chi-square statistic of observed counts against a uniform
/// expectation. Used for sampler-uniformity tests.
[[nodiscard]] double chi_square_uniform(const std::vector<std::uint64_t>& counts);

}  // namespace p2pse::support
