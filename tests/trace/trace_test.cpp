// ChurnTrace contract: validation edge cases (the hard-error list from the
// on-disk format doc), CSV round-trip exactness, and summary stats.
#include "p2pse/trace/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace_oracles.hpp"

namespace p2pse::trace {
namespace {

using Kind = TraceEvent::Kind;

/// The what() of the std::invalid_argument validate() throws, or "" when
/// the trace is accepted (any other exception type fails the test).
std::string rejection(const ChurnTrace& trace) {
  try {
    trace.validate();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

ChurnTrace small_trace() {
  ChurnTrace trace;
  trace.name = "hand";
  trace.duration = 100.0;
  trace.initial_sessions = 2;
  trace.events = {
      {10.0, Kind::kJoin, 2},
      {20.0, Kind::kLeave, 0},   // initial session departs
      {30.0, Kind::kLeave, 2},   // 20-unit session
      {40.0, Kind::kJoin, 3},    // right-censored (never leaves)
  };
  return trace;
}

TEST(ChurnTrace, EmptyTraceIsValid) {
  ChurnTrace trace;
  trace.duration = 50.0;
  trace.initial_sessions = 10;
  EXPECT_NO_THROW(trace.validate());
  const TraceSummary summary = trace.summarize();
  EXPECT_EQ(summary.joins, 0u);
  EXPECT_EQ(summary.leaves, 0u);
  EXPECT_EQ(summary.min_alive, 10u);
  EXPECT_EQ(summary.max_alive, 10u);
  EXPECT_EQ(summary.final_alive, 10u);
  EXPECT_DOUBLE_EQ(summary.mean_alive, 10.0);
  EXPECT_DOUBLE_EQ(summary.churn_rate, 0.0);
}

TEST(ChurnTrace, ValidTracePassesValidation) {
  EXPECT_NO_THROW(small_trace().validate());
}

TEST(ChurnTrace, RejectsNonPositiveDuration) {
  ChurnTrace trace;
  trace.duration = 0.0;
  EXPECT_EQ(rejection(trace), "ChurnTrace: duration must be > 0");
}

TEST(ChurnTrace, RejectsNonFiniteDurationAndTimes) {
  // Traces built in code skip the CSV reader's number rules; validate()
  // itself keeps NaN and infinities out of the window and the events.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ChurnTrace trace = small_trace();
  trace.duration = kNaN;
  EXPECT_EQ(rejection(trace), "ChurnTrace: duration must be finite, got nan");
  trace.duration = kInf;
  EXPECT_EQ(rejection(trace), "ChurnTrace: duration must be finite, got inf");
  const std::pair<double, const char*> times[] = {
      {kNaN, "nan"}, {kInf, "inf"}, {-kInf, "-inf"}};
  for (const auto& [time, text] : times) {
    trace = small_trace();
    trace.events[1].time = time;
    EXPECT_EQ(rejection(trace),
              std::string("ChurnTrace: event 1 (t=") + text +
                  ", session 0): time outside [0, duration]");
  }
}

TEST(ChurnTrace, RejectsUnsortedTimestamps) {
  ChurnTrace trace = small_trace();
  std::swap(trace.events[0], trace.events[1]);
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 1 (t=10, session 2): timestamps not sorted");
}

TEST(ChurnTrace, RejectsDuplicateTimestamps) {
  ChurnTrace trace = small_trace();
  trace.events[1].time = trace.events[0].time;  // ambiguous replay order
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 1 (t=10, session 0): duplicate timestamp "
            "(replay order would be ambiguous)");
}

TEST(ChurnTrace, RejectsLeaveBeforeJoin) {
  ChurnTrace trace;
  trace.duration = 100.0;
  trace.initial_sessions = 1;
  trace.events = {{5.0, Kind::kLeave, 7}};  // session 7 never joined
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 0 (t=5, session 7): leave before join");
}

TEST(ChurnTrace, RejectsDuplicateJoin) {
  ChurnTrace trace;
  trace.duration = 100.0;
  trace.events = {{1.0, Kind::kJoin, 0}, {2.0, Kind::kJoin, 0}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 1 (t=2, session 0): duplicate join");
}

TEST(ChurnTrace, RejectsJoinOfInitialSession) {
  ChurnTrace trace;
  trace.duration = 100.0;
  trace.initial_sessions = 3;
  trace.events = {{1.0, Kind::kJoin, 2}};  // id 2 is alive at t=0
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 0 (t=1, session 2): join of an initial "
            "session (alive at t=0)");
}

TEST(ChurnTrace, RejectsDuplicateLeave) {
  ChurnTrace trace;
  trace.duration = 100.0;
  trace.initial_sessions = 1;
  trace.events = {{1.0, Kind::kLeave, 0}, {2.0, Kind::kLeave, 0}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 1 (t=2, session 0): duplicate leave");
  // A joined session leaving twice is the same fault.
  trace.events = {{1.0, Kind::kJoin, 4},
                  {2.0, Kind::kLeave, 4},
                  {2.5, Kind::kLeave, 4}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 2 (t=2.5, session 4): duplicate leave");
}

TEST(ChurnTrace, RejectsSessionIdReuse) {
  ChurnTrace trace;
  trace.duration = 100.0;
  trace.events = {{1.0, Kind::kJoin, 5},
                  {2.0, Kind::kLeave, 5},
                  {3.0, Kind::kJoin, 5}};  // one id = one session
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 2 (t=3, session 5): session id reused after "
            "its leave");
}

TEST(ChurnTrace, RejectsEventsOutsideDuration) {
  ChurnTrace trace;
  trace.duration = 100.0;
  trace.events = {{100.5, Kind::kJoin, 0}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 0 (t=100.5, session 0): time outside "
            "[0, duration]");
  trace.events = {{-0.5, Kind::kJoin, 0}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 0 (t=-0.5, session 0): time outside "
            "[0, duration]");
}

TEST(ChurnTrace, RejectionNamesTheFirstFaultyEvent) {
  ChurnTrace trace;
  trace.duration = 100.0;
  trace.initial_sessions = 1;
  // A session fault (event 1) before a time fault (event 2): the lower
  // index is reported, whichever kind of check it fails.
  trace.events = {{1.0, Kind::kJoin, 3},
                  {2.0, Kind::kLeave, 9},
                  {1.5, Kind::kJoin, 4}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 1 (t=2, session 9): leave before join");
  // A time fault (event 1) before a session fault (event 2).
  trace.events = {{1.0, Kind::kJoin, 3},
                  {0.5, Kind::kJoin, 4},
                  {2.0, Kind::kJoin, 3}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 1 (t=0.5, session 4): timestamps not sorted");
  // Both kinds at one event: the time check is reported.
  trace.events = {{2.0, Kind::kJoin, 3}, {1.0, Kind::kJoin, 3}};
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: event 1 (t=1, session 3): timestamps not sorted");
}

TEST(ChurnTrace, SizeTrajectoryFollowsEvents) {
  const auto trajectory = oracle::size_trajectory(small_trace());
  ASSERT_EQ(trajectory.size(), 5u);
  EXPECT_EQ(trajectory[0], (std::pair<double, std::size_t>{0.0, 2}));
  EXPECT_EQ(trajectory[1], (std::pair<double, std::size_t>{10.0, 3}));
  EXPECT_EQ(trajectory[2], (std::pair<double, std::size_t>{20.0, 2}));
  EXPECT_EQ(trajectory[3], (std::pair<double, std::size_t>{30.0, 1}));
  EXPECT_EQ(trajectory[4], (std::pair<double, std::size_t>{40.0, 2}));
}

TEST(ChurnTrace, SummaryCountsAndSessionLengths) {
  const TraceSummary summary = small_trace().summarize();
  EXPECT_EQ(summary.joins, 2u);
  EXPECT_EQ(summary.leaves, 2u);
  EXPECT_EQ(summary.min_alive, 1u);
  EXPECT_EQ(summary.max_alive, 3u);
  EXPECT_EQ(summary.final_alive, 2u);
  // Only session 2 completes inside the window (initial sessions are
  // left-censored, session 3 right-censored).
  EXPECT_EQ(summary.completed_sessions, 1u);
  EXPECT_DOUBLE_EQ(summary.mean_session_length, 20.0);
  EXPECT_DOUBLE_EQ(summary.median_session_length, 20.0);
  EXPECT_DOUBLE_EQ(summary.events_per_unit, 4.0 / 100.0);
}

TEST(ChurnTrace, CsvRoundTripIsExact) {
  ChurnTrace original = small_trace();
  original.events[0].time = 10.123456789012345;  // full-precision survives
  std::stringstream buffer;
  original.write_csv(buffer);
  const ChurnTrace reloaded = ChurnTrace::read_csv(buffer);
  EXPECT_EQ(reloaded.name, original.name);
  EXPECT_DOUBLE_EQ(reloaded.duration, original.duration);
  EXPECT_EQ(reloaded.initial_sessions, original.initial_sessions);
  ASSERT_EQ(reloaded.events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_EQ(reloaded.events[i].time, original.events[i].time);  // bit-exact
    EXPECT_EQ(reloaded.events[i].kind, original.events[i].kind);
    EXPECT_EQ(reloaded.events[i].session, original.events[i].session);
  }
}

TEST(ChurnTrace, RejectsAnInitialPopulationPastTheNodeIdRange) {
  // Every initial session becomes an overlay node at replay; a population
  // net::NodeId cannot number is refused before anything is sized for it
  // (a header-only CSV claiming 2^62 sessions once reached a raw
  // vector::reserve failure).
  ChurnTrace trace = small_trace();
  trace.initial_sessions = 4611686018427387904ULL;
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: initial_sessions must be <= 4294967295 (the node "
            "id range), got 4611686018427387904");
  trace.initial_sessions = 4294967296ULL;
  EXPECT_EQ(rejection(trace),
            "ChurnTrace: initial_sessions must be <= 4294967295 (the node "
            "id range), got 4294967296");
  std::stringstream in(
      "# p2pse-trace v1\n# name: huge\n# duration: 10\n"
      "# initial_sessions: 4611686018427387904\ntime,event,session\n");
  try {
    (void)ChurnTrace::read_csv(in);
    ADD_FAILURE() << "read_csv accepted 2^62 initial sessions";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("initial_sessions"),
              std::string::npos);
  }
}

TEST(ChurnTrace, ReadCsvRejectsMalformedInput) {
  const auto read = [](const std::string& text) {
    std::stringstream in(text);
    return ChurnTrace::read_csv(in);
  };
  // Wrong magic line.
  EXPECT_THROW((void)read("not a trace\n"), std::invalid_argument);
  // Missing metadata.
  EXPECT_THROW((void)read("# p2pse-trace v1\n"), std::invalid_argument);
  const std::string header =
      "# p2pse-trace v1\n# name: x\n# duration: 10\n"
      "# initial_sessions: 1\ntime,event,session\n";
  // Unknown event kind.
  EXPECT_THROW((void)read(header + "1,rejoin,0\n"), std::invalid_argument);
  // Wrong field count.
  EXPECT_THROW((void)read(header + "1,join\n"), std::invalid_argument);
  EXPECT_THROW((void)read(header + "1,join,0,9\n"), std::invalid_argument);
  // Malformed numbers.
  EXPECT_THROW((void)read(header + "abc,join,0\n"), std::invalid_argument);
  EXPECT_THROW((void)read(header + "1,join,xyz\n"), std::invalid_argument);
  // A parsed trace is also validated (leave before join here).
  EXPECT_THROW((void)read(header + "1,leave,5\n"), std::invalid_argument);
  // Well-formed input parses.
  EXPECT_NO_THROW((void)read(header + "1,join,1\n2,leave,1\n"));
}

TEST(ChurnTrace, LoadFileReportsMissingPath) {
  EXPECT_THROW((void)ChurnTrace::load_file("/nonexistent/trace.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace p2pse::trace
