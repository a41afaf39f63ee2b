#pragma once
// Logarithmic binning of an exact integer distribution for power-law plots
// (paper Fig 7 is a log-log degree distribution).

#include <cstdint>
#include <span>
#include <vector>

namespace p2pse::support {

/// One bin of a log-binned histogram.
struct LogBin {
  double lower = 0.0;       ///< inclusive lower edge
  double upper = 0.0;       ///< exclusive upper edge
  double center = 0.0;      ///< geometric center
  std::uint64_t count = 0;  ///< raw count in the bin
  double density = 0.0;     ///< count / (bin width * total), for log-log plots
};

/// Rebins exact counts (`counts[v]` = occurrences of value v) into
/// logarithmically spaced bins, `bins_per_decade` bins per factor-of-ten.
/// Empty bins are omitted.
[[nodiscard]] std::vector<LogBin> log_binned(
    std::span<const std::uint64_t> counts, int bins_per_decade = 8);

/// Least-squares slope of log10(density) vs log10(center) over log bins —
/// the estimated power-law exponent (expected near -3 for Barabási–Albert).
[[nodiscard]] double power_law_slope(const std::vector<LogBin>& bins);

}  // namespace p2pse::support
