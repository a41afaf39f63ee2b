#include "p2pse/obs/flight_recorder.hpp"

#include <fstream>
#include <stdexcept>

#include "p2pse/obs/stats_writer.hpp"

namespace p2pse::obs {
namespace {

std::string_view kind_name(sim::FlightSink::Kind kind) noexcept {
  switch (kind) {
    case sim::FlightSink::Kind::kSend: return "send";
    case sim::FlightSink::Kind::kNote: return "note";
  }
  return "unknown";
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be >= 1");
  }
  ring_.reserve(capacity_);
}

void FlightRecorder::record(double time, Kind kind, net::NodeId node,
                            sim::MessageClass cls) noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Event event{time, node, kind, cls};
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::uint64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;  // not yet wrapped: insertion order IS oldest-first
  } else {
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::string FlightRecorder::to_json() const {
  const std::vector<Event> events = snapshot();
  std::string out = "{\"schema\":\"p2pse-flight\",\"capacity\":";
  out += std::to_string(capacity_);
  out += ",\"recorded\":";
  out += std::to_string(recorded());
  out += ",\"events\":[";
  bool first = true;
  for (const Event& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"time\":";
    out += json_number(event.time);
    out += ",\"kind\":\"";
    out += kind_name(event.kind);
    out += "\",\"node\":";
    out += event.node == net::kInvalidNode ? "null"
                                           : std::to_string(event.node);
    out += ",\"class\":\"";
    out += sim::to_string(event.cls);
    out += "\"}";
  }
  out += "]}\n";
  return out;
}

bool FlightRecorder::dump(const std::string& path) const noexcept {
  try {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json();
    return out.good();
  } catch (...) {
    return false;
  }
}

}  // namespace p2pse::obs
