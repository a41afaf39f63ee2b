#include "p2pse/support/log_bins.hpp"

#include <cmath>

namespace p2pse::support {

std::vector<LogBin> log_binned(std::span<const std::uint64_t> counts,
                               int bins_per_decade) {
  std::vector<LogBin> bins;
  std::uint64_t total_count = 0;
  for (const std::uint64_t count : counts) total_count += count;
  if (total_count == 0 || bins_per_decade <= 0) return bins;
  const double factor = std::pow(10.0, 1.0 / bins_per_decade);
  // Value 0 cannot appear on a log axis (a degree-0 node has no place in a
  // log-log degree plot), so binning starts at 1; its count stays in the
  // total the densities divide by.
  const double total = static_cast<double>(total_count);

  double lower = 1.0;
  for (std::size_t value = 1; value < counts.size(); ++value) {
    const std::uint64_t count = counts[value];
    if (count == 0) continue;
    while (static_cast<double>(value) >= lower * factor) lower *= factor;
    const double upper = lower * factor;
    if (!bins.empty() && bins.back().lower == lower) {
      bins.back().count += count;
    } else {
      LogBin bin;
      bin.lower = lower;
      bin.upper = upper;
      bin.center = std::sqrt(lower * upper);
      bin.count = count;
      bins.push_back(bin);
    }
  }
  for (auto& bin : bins) {
    const double width = bin.upper - bin.lower;
    bin.density = width > 0.0 && total > 0.0
                      ? static_cast<double>(bin.count) / (width * total)
                      : 0.0;
  }
  return bins;
}

double power_law_slope(const std::vector<LogBin>& bins) {
  // Simple least squares on (log10 center, log10 density), skipping empties.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (const auto& bin : bins) {
    if (bin.count == 0 || bin.density <= 0.0) continue;
    const double x = std::log10(bin.center);
    const double y = std::log10(bin.density);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (dn * sxy - sx * sy) / denom;
}

}  // namespace p2pse::support
