// Schema discipline for the versioned `sim` stats section: the sorted set
// of key paths is snapshotted per kStatsVersion. Adding, renaming, or
// removing a key without bumping the version fails here — consumers select
// on (schema, version), so a silent shape change would corrupt every
// --stats-json pipeline. To evolve the schema: bump kStatsVersion in
// obs/stats_writer.hpp, document the change in its version history, and
// update kVersion3KeyPaths below (renaming it to match).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "p2pse/obs/stats_writer.hpp"

namespace p2pse::obs {
namespace {

/// Flattens the compact JSON object emitted by sim_section into sorted,
/// deduplicated dotted key paths. Tailored to that writer's output: keys
/// never contain escapes, arrays never contain strings or objects.
std::vector<std::string> key_paths(const std::string& json) {
  std::vector<std::string> out;
  std::vector<std::string> stack;
  std::string last_key;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      const std::size_t end = json.find('"', i + 1);
      const std::string text = json.substr(i + 1, end - i - 1);
      i = end;
      if (i + 1 < json.size() && json[i + 1] == ':') {
        last_key = text;
        std::string path;
        for (const std::string& part : stack) {
          if (!part.empty()) path += part + '.';
        }
        out.push_back(path + text);
      }
    } else if (c == '{') {
      stack.push_back(last_key);
      last_key.clear();
    } else if (c == '}') {
      stack.pop_back();
    } else if (c == '[') {
      std::size_t depth = 1;
      while (depth > 0) {
        ++i;
        if (json[i] == '[') ++depth;
        if (json[i] == ']') --depth;
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The frozen key set of schema version 3.
const std::vector<std::string> kVersion3KeyPaths = {
      "bytes",
      "bytes.aggregation_pull",
      "bytes.aggregation_push",
      "bytes.control",
      "bytes.gossip_spread",
      "bytes.poll_reply",
      "bytes.sample_reply",
      "bytes.total",
      "bytes.walk_step",
      "channel",
      "channel.arq_timeouts",
      "channel.drops",
      "channel.retransmits",
      "channel.sends_iid",
      "channel.sends_link",
      "distributions",
      "distributions.degree",
      "distributions.degree.bounds",
      "distributions.degree.buckets",
      "distributions.degree.count",
      "distributions.delay",
      "distributions.delay.aggregation_pull",
      "distributions.delay.aggregation_pull.bounds",
      "distributions.delay.aggregation_pull.buckets",
      "distributions.delay.aggregation_pull.count",
      "distributions.delay.aggregation_push",
      "distributions.delay.aggregation_push.bounds",
      "distributions.delay.aggregation_push.buckets",
      "distributions.delay.aggregation_push.count",
      "distributions.delay.control",
      "distributions.delay.control.bounds",
      "distributions.delay.control.buckets",
      "distributions.delay.control.count",
      "distributions.delay.gossip_spread",
      "distributions.delay.gossip_spread.bounds",
      "distributions.delay.gossip_spread.buckets",
      "distributions.delay.gossip_spread.count",
      "distributions.delay.poll_reply",
      "distributions.delay.poll_reply.bounds",
      "distributions.delay.poll_reply.buckets",
      "distributions.delay.poll_reply.count",
      "distributions.delay.sample_reply",
      "distributions.delay.sample_reply.bounds",
      "distributions.delay.sample_reply.buckets",
      "distributions.delay.sample_reply.count",
      "distributions.delay.walk_step",
      "distributions.delay.walk_step.bounds",
      "distributions.delay.walk_step.buckets",
      "distributions.delay.walk_step.count",
      "distributions.node_bytes",
      "distributions.node_bytes.bounds",
      "distributions.node_bytes.buckets",
      "distributions.node_bytes.count",
      "distributions.node_messages",
      "distributions.node_messages.bounds",
      "distributions.node_messages.buckets",
      "distributions.node_messages.count",
      "distributions.walk_hops",
      "distributions.walk_hops.bounds",
      "distributions.walk_hops.buckets",
      "distributions.walk_hops.count",
      "figure",
      "graph",
      "graph.chunk_recycles",
      "graph.joins",
      "graph.leaves",
      "load",
      "load.max_node_bytes",
      "load.max_node_messages",
      "messages",
      "messages.aggregation_pull",
      "messages.aggregation_push",
      "messages.control",
      "messages.gossip_spread",
      "messages.poll_reply",
      "messages.sample_reply",
      "messages.total",
      "messages.walk_step",
      "params",
      "replicas",
};

TEST(StatsSchema, VersionMatchesTheSnapshottedKeySet) {
  EXPECT_EQ(kStatsVersion, 3);
}

TEST(StatsSchema, SimSectionKeySetIsFrozenPerVersion) {
  // A default-constructed SimCounters exercises the full shape — the
  // Distributions block is always present with its canonical bounds, so
  // the key set never depends on what a run recorded.
  const SimCounters counters;
  const std::string json = sim_section("schema_probe", "params", counters);
  EXPECT_EQ(key_paths(json), kVersion3KeyPaths)
      << "the sim section's key set changed — bump kStatsVersion "
         "(obs/stats_writer.hpp) and refresh kVersion3KeyPaths";
}

}  // namespace
}  // namespace p2pse::obs
