#pragma once
// ChurnTrace: a replayable membership workload as a stream of timestamped
// session join/leave events — the generalization of the paper's stylized
// §IV-D dynamics to measurement-shaped workloads (heavy-tailed sessions,
// diurnal cycles, flash crowds; cf. arXiv:2205.14927 on IPFS churn).
//
// Semantics
//   * The trace covers the finite window [0, duration]. `initial_sessions`
//     sessions (ids 0..initial_sessions-1) are alive at t=0 — they map onto
//     the initial overlay and may leave, but never (re)join.
//   * Every other session id appears at most once as a kJoin and at most
//     once as a later kLeave; a session whose leave falls beyond `duration`
//     simply has no leave event (right-censored).
//   * Event times are strictly increasing. Unsorted or duplicate timestamps
//     are hard validation errors: replay order must be unambiguous so a
//     trace reproduces the same size trajectory everywhere, bit for bit.
//
// On-disk format (CSV, written/parsed by write_csv/read_csv):
//
//   # p2pse-trace v1
//   # name: weibull
//   # duration: 1000
//   # initial_sessions: 10000
//   time,event,session
//   0.1285,join,10000
//   0.7401,leave,4127
//
// Metadata lines are required, in that order; `event` is `join` or `leave`.
// Times round-trip exactly (printed with max_digits10 precision); every
// field is read by support::parse_number.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace p2pse::trace {

struct TraceEvent {
  double time = 0.0;
  enum class Kind { kJoin, kLeave } kind = Kind::kJoin;
  std::uint64_t session = 0;
};

/// Descriptive statistics of a trace (what `p2pse_trace info` prints).
struct TraceSummary {
  double duration = 0.0;
  std::size_t initial_sessions = 0;
  std::size_t joins = 0;             ///< kJoin events
  std::size_t leaves = 0;            ///< kLeave events
  std::size_t min_alive = 0;         ///< size envelope over the replay
  std::size_t max_alive = 0;
  std::size_t final_alive = 0;
  double mean_alive = 0.0;           ///< time-weighted mean population
  double events_per_unit = 0.0;      ///< (joins+leaves)/duration
  /// Churn intensity: membership events per time unit per (mean) node.
  double churn_rate = 0.0;
  /// Session-length stats over *completed* non-initial sessions (both
  /// endpoints observed). Initial sessions are left-censored and open
  /// sessions right-censored; both are excluded.
  std::size_t completed_sessions = 0;
  double mean_session_length = 0.0;
  double median_session_length = 0.0;
};

class ChurnTrace {
 public:
  std::string name = "trace";
  double duration = 0.0;
  std::uint64_t initial_sessions = 0;
  std::vector<TraceEvent> events;  ///< strictly increasing time

  /// Enforces every invariant in the header comment. Throws
  /// std::invalid_argument naming the first offending event. An empty event
  /// list is valid (a static workload). The producers validate: the
  /// generators (through their shared compile step) and read_csv. Consumers
  /// (TraceDynamics, TraceCursor) take a validated trace and do not repeat
  /// the check.
  void validate() const;

  /// Replay-derived statistics. Requires a valid trace.
  [[nodiscard]] TraceSummary summarize() const;

  void write_csv(std::ostream& out) const;
  /// Parses and validates. Throws std::invalid_argument with a line number
  /// on malformed input.
  [[nodiscard]] static ChurnTrace read_csv(std::istream& in);

  void save_file(const std::string& path) const;
  [[nodiscard]] static ChurnTrace load_file(const std::string& path);
};

}  // namespace p2pse::trace
