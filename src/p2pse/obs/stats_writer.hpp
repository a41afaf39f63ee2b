#pragma once
// Versioned JSON run summaries (--stats-json). One document, two strictly
// separated sections:
//
//   "sim"  — a pure function of (figure, parameters, seed): the merged
//            SimCounters block. Byte-identical across --threads 1/2/8 and
//            golden-tested; never contains wall-clock, RSS or thread count.
//   "host" — everything about the machine and this particular execution:
//            thread count, peak RSS, wall-clock seconds per phase. Expected
//            to differ between runs.
//
// Schema: {"schema":"p2pse-run-stats","version":3,"sim":{...},"host":{...}}.
// Bump kStatsVersion on any key change; consumers select on both fields.
// tests/obs/schema_keys_test.cpp snapshots the sim section's key set per
// version — adding or renaming a key without a bump fails there.
//
// Version history:
//   1 — events/channel/graph/messages counter blocks.
//   2 — adds "bytes" (per-class + total wire bytes), "load" (per-node
//       peaks) and "distributions" (fixed-bucket histograms: per-class
//       delay, walk hops, per-node load in messages and bytes, degree).
//       Histograms serialize bounds/buckets/count only — no floating-point
//       sum, so replica merges stay byte-identical at any thread count.
//   3 — drops the "events" block (no protocol schedules events: every
//       estimator is walk- or round-driven).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "p2pse/obs/metrics.hpp"

namespace p2pse::obs {

inline constexpr std::string_view kStatsSchema = "p2pse-run-stats";
inline constexpr int kStatsVersion = 3;

/// JSON string-body escaping: quotes, backslashes, and control characters
/// (the latter as \uXXXX, with \n \r \t shorthands).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Deterministic shortest-round-trip formatting via std::to_chars — no
/// locale, no stream state. Non-finite values render as null (JSON has no
/// Inf/NaN).
[[nodiscard]] std::string json_number(double value);

/// The canonical `sim` section object (compact, no whitespace). `figure` is
/// the report id (e.g. "fig_sc_static"), `params` the report's parameter
/// line. Shared by the CLI writer and the golden tests so the bytes under
/// test are the bytes shipped.
[[nodiscard]] std::string sim_section(std::string_view figure,
                                      std::string_view params,
                                      const SimCounters& counters);

/// Host-side (non-deterministic) run facts.
struct HostStats {
  int threads_requested = 0;  ///< the --threads flag (0 = auto)
  std::int64_t peak_rss_kb = 0;
  std::map<std::string, double> phase_seconds;  ///< TraceLog::phase_totals
};

/// The `host` section object (compact).
[[nodiscard]] std::string host_section(const HostStats& host);

/// The full versioned document: schema/version wrapper around the two
/// pre-rendered section objects. Ends with a newline.
[[nodiscard]] std::string run_stats_document(std::string_view sim_json,
                                             std::string_view host_json);

}  // namespace p2pse::obs
