#include "p2pse/obs/stats_writer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace p2pse::obs {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("fig_sc_static"), "fig_sc_static");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\path\\file"), "C:\\\\path\\\\file");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("\x01\x1f"), "\\u0001\\u001f");
}

TEST(JsonEscape, LeavesUtf8MultibyteSequencesAlone) {
  // Bytes >= 0x80 are not control characters; UTF-8 payloads pass through.
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonNumber, ShortestRoundTripFormatting) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-3.25), "-3.25");
}

TEST(JsonNumber, NonFiniteValuesBecomeNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(StatsWriter, SimSectionRendersAllCounterGroups) {
  SimCounters counters;
  counters.replicas = 2;
  counters.channel_sends_iid = 40;
  counters.channel_drops = 3;
  counters.graph_joins = 10;
  counters.messages[0] = 25;  // walk_step
  counters.messages_total = 25;
  counters.bytes[0] = 1100;  // 25 walk_steps at 44 bytes
  counters.bytes_total = 1100;
  counters.max_node_messages = 5;
  counters.max_node_bytes = 220;
  const std::string json = sim_section("fig_x", "nodes=10 seed=1", counters);
  // The scalar blocks are exact; the (long) distributions block is covered
  // shape-wise here and byte-for-byte by the fig01 golden + the schema
  // key-set snapshot (schema_keys_test.cpp).
  const std::string scalar_prefix =
      "{\"figure\":\"fig_x\",\"params\":\"nodes=10 seed=1\",\"replicas\":2,"
      "\"channel\":{\"sends_iid\":40,\"sends_link\":0,\"drops\":3,"
      "\"retransmits\":0,\"arq_timeouts\":0},"
      "\"graph\":{\"joins\":10,\"leaves\":0,\"chunk_recycles\":0},"
      "\"messages\":{\"walk_step\":25,\"sample_reply\":0,\"gossip_spread\":0,"
      "\"poll_reply\":0,\"aggregation_push\":0,\"aggregation_pull\":0,"
      "\"control\":0,\"total\":25},"
      "\"bytes\":{\"walk_step\":1100,\"sample_reply\":0,\"gossip_spread\":0,"
      "\"poll_reply\":0,\"aggregation_push\":0,\"aggregation_pull\":0,"
      "\"control\":0,\"total\":1100},"
      "\"load\":{\"max_node_messages\":5,\"max_node_bytes\":220},"
      "\"distributions\":{\"delay\":{";
  ASSERT_GT(json.size(), scalar_prefix.size());
  EXPECT_EQ(json.substr(0, scalar_prefix.size()), scalar_prefix);
  for (const char* hist :
       {"\"walk_hops\":{\"bounds\":", "\"node_messages\":{\"bounds\":",
        "\"node_bytes\":{\"bounds\":", "\"degree\":{\"bounds\":"}) {
    EXPECT_NE(json.find(hist), std::string::npos) << hist;
  }
  EXPECT_EQ(json.back(), '}');
}

TEST(StatsWriter, SimSectionEscapesFigureAndParams) {
  const SimCounters counters;
  const std::string json = sim_section("fig\"1\"", "a\\b\nc", counters);
  EXPECT_NE(json.find("\"figure\":\"fig\\\"1\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"params\":\"a\\\\b\\nc\""), std::string::npos);
}

TEST(StatsWriter, HostSectionCarriesPhasesSortedByName) {
  HostStats host;
  host.threads_requested = 4;
  host.peak_rss_kb = 123456;
  host.phase_seconds["simulate"] = 1.5;
  host.phase_seconds["graph-build"] = 0.25;
  EXPECT_EQ(host_section(host),
            "{\"threads_requested\":4,\"peak_rss_kb\":123456,"
            "\"phases_s\":{\"graph-build\":0.25,\"simulate\":1.5}}");
}

TEST(StatsWriter, DocumentWrapsSectionsWithSchemaAndVersion) {
  const std::string doc = run_stats_document("{\"sim\":1}", "{\"host\":2}");
  EXPECT_EQ(doc,
            "{\"schema\":\"p2pse-run-stats\",\"version\":3,"
            "\"sim\":{\"sim\":1},\"host\":{\"host\":2}}\n");
  EXPECT_EQ(doc.back(), '\n');
}

}  // namespace
}  // namespace p2pse::obs
