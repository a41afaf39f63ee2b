#include "trace_oracles.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace p2pse::trace::oracle {
namespace {

[[noreturn]] void bad_trace(const std::string& what) {
  throw std::invalid_argument("ChurnTrace: " + what);
}

std::string exact(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

}  // namespace

std::vector<std::pair<double, std::size_t>> size_trajectory(
    const ChurnTrace& trace) {
  std::vector<std::pair<double, std::size_t>> trajectory;
  trajectory.reserve(trace.events.size() + 1);
  std::size_t alive = static_cast<std::size_t>(trace.initial_sessions);
  trajectory.emplace_back(0.0, alive);
  for (const TraceEvent& event : trace.events) {
    if (event.kind == TraceEvent::Kind::kJoin) {
      ++alive;
    } else {
      --alive;
    }
    trajectory.emplace_back(event.time, alive);
  }
  return trajectory;
}

void reference_validate(const ChurnTrace& trace) {
  if (!std::isfinite(trace.duration)) {
    bad_trace("duration must be finite, got " + exact(trace.duration));
  }
  if (trace.duration <= 0.0) bad_trace("duration must be > 0");
  if (trace.initial_sessions > 4294967295ULL) {
    bad_trace("initial_sessions must be <= 4294967295 (the node id range), "
              "got " + std::to_string(trace.initial_sessions));
  }
  double prev = -1.0;
  std::unordered_set<std::uint64_t> alive_joined;
  std::unordered_set<std::uint64_t> closed;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& event = trace.events[i];
    const std::string at = "event " + std::to_string(i) + " (t=" +
                           exact(event.time) + ", session " +
                           std::to_string(event.session) + ")";
    if (std::isnan(event.time) || event.time < 0.0 ||
        event.time > trace.duration) {
      bad_trace(at + ": time outside [0, duration]");
    }
    if (event.time == prev) {
      bad_trace(at + ": duplicate timestamp (replay order would be "
                     "ambiguous)");
    }
    if (event.time < prev) bad_trace(at + ": timestamps not sorted");
    prev = event.time;
    const bool is_initial = event.session < trace.initial_sessions;
    if (event.kind == TraceEvent::Kind::kJoin) {
      if (is_initial) {
        bad_trace(at + ": join of an initial session (alive at t=0)");
      }
      if (closed.contains(event.session)) {
        bad_trace(at + ": session id reused after its leave");
      }
      if (!alive_joined.insert(event.session).second) {
        bad_trace(at + ": duplicate join");
      }
    } else {
      if (is_initial) {
        if (!closed.insert(event.session).second) {
          bad_trace(at + ": duplicate leave");
        }
      } else if (alive_joined.erase(event.session) == 1) {
        closed.insert(event.session);
      } else {
        bad_trace(at + (closed.contains(event.session)
                            ? ": duplicate leave"
                            : ": leave before join"));
      }
    }
  }
}

}  // namespace p2pse::trace::oracle
