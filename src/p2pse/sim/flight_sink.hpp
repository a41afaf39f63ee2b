#pragma once
// The simulator-side half of the flight recorder: a minimal sink interface
// the Simulator notifies on every send when one is installed. The concrete
// ring buffer (obs::FlightRecorder) lives in the observability layer — sim
// stays obs-free, obs implements this interface. A null sink costs one
// branch per send.

#include <cstdint>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/message_meter.hpp"

namespace p2pse::sim {

class FlightSink {
 public:
  enum class Kind : std::uint8_t {
    kSend = 0,  ///< a logical protocol send left `node`
    kNote,      ///< free-form marker (harness phase boundaries)
  };

  virtual ~FlightSink() = default;

  /// `node` is kInvalidNode when the event has no node attribution; `cls`
  /// is meaningful for kSend only (kControl otherwise). Must be cheap and
  /// must never throw — it runs on the sim hot path when enabled.
  virtual void record(double time, Kind kind, net::NodeId node,
                      MessageClass cls) noexcept = 0;
};

}  // namespace p2pse::sim
