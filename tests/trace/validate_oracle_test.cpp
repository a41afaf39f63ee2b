// ChurnTrace::validate() against the plain-loop reference it replaced
// (trace_oracles.hpp): thousands of small traces, each a valid trace with a
// few fault-prone edits drawn from a fixed seed, must be accepted by both
// or rejected by both with the same message. Generated traces at scale
// exercise the session sort with many ids.
#include "p2pse/trace/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "p2pse/support/rng.hpp"
#include "p2pse/trace/generators.hpp"
#include "trace_oracles.hpp"

namespace p2pse::trace {
namespace {

using Kind = TraceEvent::Kind;

/// validate()'s and the reference's what(), or "" when a trace is accepted.
std::pair<std::string, std::string> verdicts(const ChurnTrace& trace) {
  std::pair<std::string, std::string> out;
  try {
    trace.validate();
  } catch (const std::invalid_argument& error) {
    out.first = error.what();
  }
  try {
    oracle::reference_validate(trace);
  } catch (const std::invalid_argument& error) {
    out.second = error.what();
  }
  return out;
}

/// The fault a message names, without the event it names it at.
std::string fault_of(const std::string& message) {
  if (message.empty()) return "accepted";
  const std::size_t at = message.rfind("): ");
  return at == std::string::npos ? message.substr(message.find(": ") + 2)
                                 : message.substr(at + 3);
}

/// A valid trace of 1-12 events at times 1, 2, ...: up to four initial
/// sessions, joins of fresh ids and leaves of alive ones.
ChurnTrace valid_trace(support::RngStream& rng) {
  ChurnTrace trace;
  trace.initial_sessions = rng.uniform_u64(5);
  std::vector<std::uint64_t> alive;
  for (std::uint64_t id = 0; id < trace.initial_sessions; ++id) {
    alive.push_back(id);
  }
  std::uint64_t next_id = trace.initial_sessions;
  const std::size_t count = 1 + rng.uniform_u64(12);
  for (std::size_t i = 0; i < count; ++i) {
    const double time = static_cast<double>(i + 1);
    if (alive.empty() || rng.bernoulli(0.5)) {
      trace.events.push_back({time, Kind::kJoin, next_id});
      alive.push_back(next_id++);
    } else {
      const std::size_t pick = rng.uniform_u64(alive.size());
      trace.events.push_back({time, Kind::kLeave, alive[pick]});
      alive[pick] = alive.back();
      alive.pop_back();
    }
  }
  trace.duration = static_cast<double>(count + 1);
  return trace;
}

/// One edit that may break any of the invariants.
void mutate(ChurnTrace& trace, support::RngStream& rng) {
  std::vector<TraceEvent>& events = trace.events;
  TraceEvent& event = events[rng.uniform_u64(events.size())];
  TraceEvent& other = events[rng.uniform_u64(events.size())];
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (rng.uniform_u64(10)) {
    case 0:  // swap the kind
      event.kind = event.kind == Kind::kJoin ? Kind::kLeave : Kind::kJoin;
      break;
    case 1:  // duplicate or reuse another event's id
      event.session = other.session;
      break;
    case 2:  // an initial id, or the first fresh one
      event.session = rng.uniform_u64(trace.initial_sessions + 1);
      break;
    case 3:  // another event's time: a duplicate, or out of order
      event.time = other.time;
      break;
    case 4:  // nudge the time
      event.time += rng.uniform_real(-2.0, 2.0);
      break;
    case 5:  // cross the window
      event.time = rng.bernoulli(0.5) ? trace.duration + 0.5 : -0.5;
      break;
    case 6:  // shrink the window under an event (possibly to <= 0)
      trace.duration =
          other.time - 0.25 * static_cast<double>(rng.uniform_u64(5));
      break;
    case 7:  // reorder two events
      std::swap(event, other);
      break;
    case 8:  // a window with no finite end
      trace.duration = rng.bernoulli(0.5) ? kNaN : kInf;
      break;
    default: {  // a time no comparison orders, or one past every window
      const double non_finite[] = {kNaN, kInf, -kInf};
      event.time = non_finite[rng.uniform_u64(3)];
      break;
    }
  }
}

TEST(ValidateOracle, MutatedTracesGetTheReferenceVerdict) {
  const support::RngStream root(25);
  std::map<std::string, int> outcomes;
  for (std::uint64_t k = 0; k < 4000; ++k) {
    support::RngStream rng = root.split("trace", k);
    ChurnTrace trace = valid_trace(rng);
    const std::uint64_t edits = rng.uniform_u64(4);
    for (std::uint64_t e = 0; e < edits; ++e) mutate(trace, rng);
    const auto [actual, expected] = verdicts(trace);
    ASSERT_EQ(actual, expected) << "trace " << k;
    ++outcomes[fault_of(expected)];
  }
  // Every verdict occurs, so no check is compared vacuously.
  for (const char* outcome :
       {"accepted", "duration must be > 0",
        "duration must be finite, got nan", "duration must be finite, got inf",
        "time outside [0, duration]",
        "duplicate timestamp (replay order would be ambiguous)",
        "timestamps not sorted", "join of an initial session (alive at t=0)",
        "session id reused after its leave", "duplicate join",
        "duplicate leave", "leave before join"}) {
    EXPECT_GT(outcomes[outcome], 0) << outcome;
  }
}

TEST(ValidateOracle, GeneratedTracesGetTheReferenceVerdict) {
  SessionWorkloadConfig config;
  config.initial_sessions = 2000;
  config.duration = 300.0;
  config.lifetime.law = Lifetime::Law::kWeibull;
  config.lifetime.shape = 0.5;
  config.lifetime.scale = 50.0;
  const ChurnTrace trace = generate_sessions(config, support::RngStream(3));
  ASSERT_GT(trace.events.size(), 1000u);
  EXPECT_EQ(verdicts(trace), std::make_pair(std::string(), std::string()));

  // One late edit per copy: the fault sits among thousands of valid
  // sessions, after the ids it collides with.
  support::RngStream rng(4);
  int rejected = 0;
  for (int k = 0; k < 50; ++k) {
    ChurnTrace faulty = trace;
    const std::size_t tail = faulty.events.size() / 2;
    TraceEvent& event =
        faulty.events[tail + rng.uniform_u64(faulty.events.size() - tail)];
    const TraceEvent& earlier = faulty.events[rng.uniform_u64(tail)];
    if (k % 2 == 0) {
      event.session = earlier.session;
    } else {
      event.kind = event.kind == Kind::kJoin ? Kind::kLeave : Kind::kJoin;
    }
    const auto [actual, expected] = verdicts(faulty);
    EXPECT_EQ(actual, expected) << "copy " << k;
    rejected += expected.empty() ? 0 : 1;
  }
  EXPECT_GT(rejected, 25);
}

}  // namespace
}  // namespace p2pse::trace
