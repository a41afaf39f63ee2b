#include "p2pse/obs/stats_writer.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace p2pse::obs {
namespace {

void append_kv(std::string& out, std::string_view key, std::uint64_t value,
               bool first = false) {
  if (!first) out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

/// {"bounds":[...],"buckets":[...],"count":N} — deliberately no sum field:
/// a double accumulator would depend on replica merge order.
void append_histogram(std::string& out, std::string_view key,
                      const support::FixedHistogram& hist,
                      bool first = false) {
  if (!first) out += ',';
  out += '"';
  out += key;
  out += "\":{\"bounds\":[";
  for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(hist.bounds()[i]);
  }
  out += "],\"buckets\":[";
  for (std::size_t i = 0; i < hist.buckets().size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(hist.buckets()[i]);
  }
  out += "],\"count\":";
  out += std::to_string(hist.count());
  out += '}';
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", byte);
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::array<char, 32> buf{};
  const auto result =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return std::string(buf.data(), result.ptr);
}

std::string sim_section(std::string_view figure, std::string_view params,
                        const SimCounters& counters) {
  std::string out = "{\"figure\":\"";
  out += json_escape(figure);
  out += "\",\"params\":\"";
  out += json_escape(params);
  out += '"';
  append_kv(out, "replicas", counters.replicas);
  out += ",\"channel\":{";
  append_kv(out, "sends_iid", counters.channel_sends_iid, /*first=*/true);
  append_kv(out, "sends_link", counters.channel_sends_link);
  append_kv(out, "drops", counters.channel_drops);
  append_kv(out, "retransmits", counters.channel_retransmits);
  append_kv(out, "arq_timeouts", counters.channel_arq_timeouts);
  out += "},\"graph\":{";
  append_kv(out, "joins", counters.graph_joins, /*first=*/true);
  append_kv(out, "leaves", counters.graph_leaves);
  append_kv(out, "chunk_recycles", counters.graph_chunk_recycles);
  out += "},\"messages\":{";
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    append_kv(out, sim::to_string(static_cast<sim::MessageClass>(i)),
              counters.messages[i], /*first=*/i == 0);
  }
  append_kv(out, "total", counters.messages_total);
  out += "},\"bytes\":{";
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    append_kv(out, sim::to_string(static_cast<sim::MessageClass>(i)),
              counters.bytes[i], /*first=*/i == 0);
  }
  append_kv(out, "total", counters.bytes_total);
  out += "},\"load\":{";
  append_kv(out, "max_node_messages", counters.max_node_messages,
            /*first=*/true);
  append_kv(out, "max_node_bytes", counters.max_node_bytes);
  out += "},\"distributions\":{\"delay\":{";
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    append_histogram(out, sim::to_string(static_cast<sim::MessageClass>(i)),
                     counters.distributions.delay[i], /*first=*/i == 0);
  }
  out += '}';
  append_histogram(out, "walk_hops", counters.distributions.walk_hops);
  append_histogram(out, "node_messages",
                   counters.distributions.node_messages);
  append_histogram(out, "node_bytes", counters.distributions.node_bytes);
  append_histogram(out, "degree", counters.distributions.degree);
  out += "}}";
  return out;
}

std::string host_section(const HostStats& host) {
  std::string out = "{\"threads_requested\":";
  out += std::to_string(host.threads_requested);
  out += ",\"peak_rss_kb\":";
  out += std::to_string(host.peak_rss_kb);
  out += ",\"phases_s\":{";
  bool first = true;
  for (const auto& [name, seconds] : host.phase_seconds) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":";
    out += json_number(seconds);
  }
  out += "}}";
  return out;
}

std::string run_stats_document(std::string_view sim_json,
                               std::string_view host_json) {
  std::string out = "{\"schema\":\"";
  out += kStatsSchema;
  out += "\",\"version\":";
  out += std::to_string(kStatsVersion);
  out += ",\"sim\":";
  out += sim_json;
  out += ",\"host\":";
  out += host_json;
  out += "}\n";
  return out;
}

}  // namespace p2pse::obs
