#include "p2pse/trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "p2pse/net/graph.hpp"
#include "p2pse/support/number.hpp"

namespace p2pse::trace {
namespace {

constexpr std::string_view kMagic = "# p2pse-trace v1";
constexpr std::string_view kHeader = "time,event,session";

[[noreturn]] void bad_trace(const std::string& what) {
  throw std::invalid_argument("ChurnTrace: " + what);
}

[[noreturn]] void bad_line(std::size_t line, const std::string& what) {
  bad_trace("line " + std::to_string(line) + ": " + what);
}

/// Full-precision double formatting so a written trace reloads bit-exact.
std::string exact(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

/// Field `what` of line `line` as a T (support/number.hpp's rules).
template <class T>
T parse_field(std::string_view text, std::size_t line, std::string_view what) {
  if (const auto value = support::parse_number<T>(text)) return *value;
  bad_line(line, std::string(what) +
                     (std::is_floating_point_v<T>
                          ? " is not a finite number: '"
                          : " is not a non-negative integer: '") +
                     std::string(text) + "'");
}

/// Value of a `# key: value` metadata line, or nullopt on mismatch.
std::optional<std::string_view> metadata_value(std::string_view line,
                                               std::string_view key) {
  const std::string prefix = "# " + std::string(key) + ":";
  if (line.substr(0, prefix.size()) != prefix) return std::nullopt;
  std::string_view value = line.substr(prefix.size());
  while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
  return value;
}

}  // namespace

void ChurnTrace::validate() const {
  if (!std::isfinite(duration)) {
    bad_trace("duration must be finite, got " + exact(duration));
  }
  if (duration <= 0.0) bad_trace("duration must be > 0");
  // Every initial session becomes an overlay node at replay, numbered by
  // a net::NodeId: a larger population cannot be built.
  constexpr std::uint64_t kMaxInitial =
      std::numeric_limits<net::NodeId>::max();
  if (initial_sessions > kMaxInitial) {
    std::string what = "initial_sessions must be <= ";
    what.append(std::to_string(kMaxInitial));
    what.append(" (the node id range), got ");
    what.append(std::to_string(initial_sessions));
    bad_trace(what);
  }
  // The lowest-index faulty event is reported; at one index the time checks
  // come first. Its message is formatted only once a fault is found.
  std::size_t bad = events.size();
  std::string_view fault;
  double prev = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double time = events[i].time;
    // Negated so that a NaN time, which fails every comparison, is out of
    // the window too; a finite duration keeps both infinities out as well.
    if (!(time >= 0.0 && time <= duration)) {
      fault = "time outside [0, duration]";
    } else if (time == prev) {
      fault = "duplicate timestamp (replay order would be ambiguous)";
    } else if (time < prev) {
      fault = "timestamps not sorted";
    } else {
      prev = time;
      continue;
    }
    bad = i;
    break;
  }

  // Session checks walk each session's events in index order, grouped by
  // one sort of (session, index) pairs. Only events before the current
  // fault can displace it. An initial session starts alive; a closed id
  // may never reappear (one session id = one join/leave pair).
  std::vector<std::pair<std::uint64_t, std::size_t>> order(bad);
  for (std::size_t i = 0; i < bad; ++i) order[i] = {events[i].session, i};
  std::sort(order.begin(), order.end());
  enum class State { kNone, kJoined, kClosed };
  State state = State::kNone;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto [session, i] = order[k];
    const bool is_initial = session < initial_sessions;
    if (k == 0 || order[k - 1].first != session) {
      state = is_initial ? State::kJoined : State::kNone;
    }
    if (i >= bad) continue;
    std::string_view problem;
    if (events[i].kind == TraceEvent::Kind::kJoin) {
      if (is_initial) {
        problem = "join of an initial session (alive at t=0)";
      } else if (state == State::kClosed) {
        problem = "session id reused after its leave";
      } else if (state == State::kJoined) {
        problem = "duplicate join";
      } else {
        state = State::kJoined;
      }
    } else if (state == State::kJoined) {
      state = State::kClosed;
    } else {
      problem = state == State::kClosed ? "duplicate leave"
                                        : "leave before join";
    }
    if (!problem.empty()) {
      bad = i;
      fault = problem;
    }
  }

  if (bad == events.size()) return;
  const TraceEvent& event = events[bad];
  std::string what = "event ";
  what.append(std::to_string(bad))
      .append(" (t=")
      .append(exact(event.time))
      .append(", session ")
      .append(std::to_string(event.session))
      .append("): ")
      .append(fault);
  bad_trace(what);
}

TraceSummary ChurnTrace::summarize() const {
  TraceSummary summary;
  summary.duration = duration;
  summary.initial_sessions = static_cast<std::size_t>(initial_sessions);
  summary.min_alive = summary.max_alive = summary.final_alive =
      summary.initial_sessions;

  std::unordered_map<std::uint64_t, double> join_time;
  std::vector<double> lengths;
  std::size_t alive = summary.initial_sessions;
  double weighted_alive = 0.0;
  double prev_time = 0.0;
  for (const TraceEvent& event : events) {
    weighted_alive += static_cast<double>(alive) * (event.time - prev_time);
    prev_time = event.time;
    if (event.kind == TraceEvent::Kind::kJoin) {
      ++summary.joins;
      ++alive;
      join_time.emplace(event.session, event.time);
    } else {
      ++summary.leaves;
      --alive;
      const auto it = join_time.find(event.session);
      if (it != join_time.end()) {
        lengths.push_back(event.time - it->second);
        join_time.erase(it);
      }
    }
    summary.min_alive = std::min(summary.min_alive, alive);
    summary.max_alive = std::max(summary.max_alive, alive);
  }
  weighted_alive += static_cast<double>(alive) * (duration - prev_time);
  summary.final_alive = alive;
  summary.mean_alive = weighted_alive / duration;
  summary.events_per_unit =
      static_cast<double>(summary.joins + summary.leaves) / duration;
  summary.churn_rate = summary.mean_alive > 0.0
                           ? summary.events_per_unit / summary.mean_alive
                           : 0.0;
  summary.completed_sessions = lengths.size();
  if (!lengths.empty()) {
    double total = 0.0;
    for (const double length : lengths) total += length;
    summary.mean_session_length = total / static_cast<double>(lengths.size());
    std::sort(lengths.begin(), lengths.end());
    const std::size_t mid = lengths.size() / 2;
    summary.median_session_length =
        lengths.size() % 2 == 1 ? lengths[mid]
                                : 0.5 * (lengths[mid - 1] + lengths[mid]);
  }
  return summary;
}

void ChurnTrace::write_csv(std::ostream& out) const {
  out << kMagic << "\n";
  out << "# name: " << name << "\n";
  out << "# duration: " << exact(duration) << "\n";
  out << "# initial_sessions: " << initial_sessions << "\n";
  out << kHeader << "\n";
  for (const TraceEvent& event : events) {
    out << exact(event.time) << ','
        << (event.kind == TraceEvent::Kind::kJoin ? "join" : "leave") << ','
        << event.session << "\n";
  }
}

ChurnTrace ChurnTrace::read_csv(std::istream& in) {
  ChurnTrace trace;
  std::string line;
  std::size_t line_no = 0;
  const auto next_line = [&]() -> bool {
    if (!std::getline(in, line)) return false;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  };

  if (!next_line() || line != kMagic) {
    bad_line(line_no, "expected magic line '" + std::string(kMagic) + "'");
  }
  if (!next_line()) bad_line(line_no, "missing '# name:' metadata");
  const auto name = metadata_value(line, "name");
  if (!name) bad_line(line_no, "expected '# name: ...'");
  trace.name = std::string(*name);
  if (!next_line()) bad_line(line_no, "missing '# duration:' metadata");
  const auto duration = metadata_value(line, "duration");
  if (!duration) bad_line(line_no, "expected '# duration: ...'");
  trace.duration = parse_field<double>(*duration, line_no, "duration");
  if (!next_line()) bad_line(line_no, "missing '# initial_sessions:' metadata");
  const auto initial = metadata_value(line, "initial_sessions");
  if (!initial) bad_line(line_no, "expected '# initial_sessions: ...'");
  trace.initial_sessions = parse_field<std::uint64_t>(*initial, line_no,
                                                    "initial_sessions");
  if (!next_line() || line != kHeader) {
    bad_line(line_no, "expected column header '" + std::string(kHeader) + "'");
  }

  while (next_line()) {
    if (line.empty()) continue;
    const std::string_view row = line;
    const std::size_t first = row.find(',');
    const std::size_t second =
        first == std::string_view::npos ? first : row.find(',', first + 1);
    if (second == std::string_view::npos ||
        row.find(',', second + 1) != std::string_view::npos) {
      bad_line(line_no, "expected exactly 3 fields (time,event,session)");
    }
    TraceEvent event;
    event.time = parse_field<double>(row.substr(0, first), line_no, "time");
    const std::string_view kind = row.substr(first + 1, second - first - 1);
    if (kind == "join") {
      event.kind = TraceEvent::Kind::kJoin;
    } else if (kind == "leave") {
      event.kind = TraceEvent::Kind::kLeave;
    } else {
      bad_line(line_no,
               "event must be 'join' or 'leave', got '" + std::string(kind) +
                   "'");
    }
    event.session = parse_field<std::uint64_t>(row.substr(second + 1),
                                               line_no, "session");
    trace.events.push_back(event);
  }
  trace.validate();
  return trace;
}

void ChurnTrace::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("ChurnTrace: cannot open '" + path +
                             "' for writing");
  }
  write_csv(out);
  if (!out) {
    throw std::runtime_error("ChurnTrace: write to '" + path + "' failed");
  }
}

ChurnTrace ChurnTrace::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ChurnTrace: cannot open '" + path + "'");
  }
  try {
    return read_csv(in);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

}  // namespace p2pse::trace
