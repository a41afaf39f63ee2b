#pragma once
// Common result type for all size estimators.

#include <cstdint>

#include "p2pse/sim/time.hpp"

namespace p2pse::est {

/// One size estimate together with its provenance and cost.
struct Estimate {
  double value = 0.0;          ///< estimated network size N-hat
  sim::Time time = 0.0;        ///< simulated time when produced
  std::uint64_t messages = 0;  ///< messages spent producing this estimate
  bool valid = true;           ///< false when the algorithm could not estimate
  /// Measured wall-clock the estimation took under the simulator's delivery
  /// channel (latency + retransmission/timeout waits, composed per the
  /// protocol's sequential/parallel structure). 0 on the ideal channel.
  double delay = 0.0;

  [[nodiscard]] static Estimate invalid_at(sim::Time t,
                                           std::uint64_t cost = 0) noexcept {
    Estimate e;
    e.value = 0.0;
    e.time = t;
    e.messages = cost;
    e.valid = false;
    return e;
  }
};

}  // namespace p2pse::est
