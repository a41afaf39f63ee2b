#pragma once
// Plain-loop oracles the trace tests check the library against: the
// (time, alive count) step function a trace induces, and the hash-set
// validator ChurnTrace::validate() replaced, kept verbatim in behaviour so
// the sort-based rewrite can be compared message for message.

#include <cstddef>
#include <utility>
#include <vector>

#include "p2pse/trace/trace.hpp"

namespace p2pse::trace::oracle {

/// The (time, alive count) step function `trace` induces, starting at
/// (0, initial_sessions). One point per event.
[[nodiscard]] std::vector<std::pair<double, std::size_t>> size_trajectory(
    const ChurnTrace& trace);

/// Checks every ChurnTrace invariant one event at a time with two hash
/// sets of session ids. Throws std::invalid_argument with exactly the
/// message ChurnTrace::validate() must throw.
void reference_validate(const ChurnTrace& trace);

}  // namespace p2pse::trace::oracle
