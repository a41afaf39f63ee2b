#pragma once
// Host-resource probe behind the `host` stats section. It reads the
// OPERATING SYSTEM, never the simulation: nothing in this header may feed
// the deterministic `sim` section of a run summary.

#include <cstdint>

namespace p2pse::obs {

/// Peak resident set size of the calling process, in kilobytes
/// (getrusage ru_maxrss — Linux reports kilobytes).
[[nodiscard]] std::int64_t peak_rss_kb();

}  // namespace p2pse::obs
