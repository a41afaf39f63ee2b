#include "p2pse/obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "figure_main.hpp"
#include "p2pse/harness/figures.hpp"
#include "p2pse/obs/telemetry.hpp"

namespace p2pse::obs {
namespace {

using Kind = sim::FlightSink::Kind;

void skip_whitespace(std::string_view text, std::size_t& i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
}

/// Minimal JSON well-formedness check: consumes one value starting at `i`
/// and returns false on any syntax error.
bool parse_json_value(std::string_view text, std::size_t& i) {
  skip_whitespace(text, i);
  if (i >= text.size()) return false;
  const char open = text[i];
  if (open == '{' || open == '[') {
    const char close = open == '{' ? '}' : ']';
    ++i;
    skip_whitespace(text, i);
    if (i < text.size() && text[i] == close) {
      ++i;
      return true;
    }
    while (true) {
      if (open == '{') {
        skip_whitespace(text, i);
        if (i >= text.size() || text[i] != '"') return false;
        if (!parse_json_value(text, i)) return false;
        skip_whitespace(text, i);
        if (i >= text.size() || text[i++] != ':') return false;
      }
      if (!parse_json_value(text, i)) return false;
      skip_whitespace(text, i);
      if (i >= text.size()) return false;
      const char next = text[i++];
      if (next == close) return true;
      if (next != ',') return false;
    }
  }
  if (open == '"') {
    for (++i; i < text.size(); ++i) {
      if (text[i] == '\\') {
        ++i;
      } else if (text[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  }
  for (const std::string_view word : {"null", "true", "false"}) {
    if (text.substr(i, word.size()) == word) {
      i += word.size();
      return true;
    }
  }
  const std::size_t start = i;
  while (i < text.size() &&
         std::string_view("0123456789+-.eE").find(text[i]) !=
             std::string_view::npos) {
    ++i;
  }
  return i > start;
}

bool is_json_document(std::string_view text) {
  std::size_t i = 0;
  if (!parse_json_value(text, i)) return false;
  skip_whitespace(text, i);
  return i == text.size();
}

std::size_t count_of(std::string_view text, std::string_view needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string_view::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(FlightRecorder, RejectsZeroCapacity) {
  EXPECT_THROW(FlightRecorder(0), std::invalid_argument);
}

TEST(FlightRecorder, RingKeepsTheMostRecentEventsOldestFirst) {
  FlightRecorder recorder(3);
  for (int i = 0; i < 5; ++i) {
    recorder.record(static_cast<double>(i), Kind::kSend, net::NodeId(i),
                    sim::MessageClass::kWalkStep);
  }
  EXPECT_EQ(recorder.capacity(), 3u);
  EXPECT_EQ(recorder.recorded(), 5u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_DOUBLE_EQ(events[1].time, 3.0);
  EXPECT_DOUBLE_EQ(events[2].time, 4.0);
  EXPECT_EQ(events[2].node, net::NodeId{4});
}

TEST(FlightRecorder, ToJsonCarriesSchemaAndEventFields) {
  FlightRecorder recorder(4);
  recorder.record(1.5, Kind::kSend, net::NodeId{7},
                  sim::MessageClass::kSampleReply);
  recorder.record(2.0, Kind::kNote, net::kInvalidNode,
                  sim::MessageClass::kControl);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"schema\":\"p2pse-flight\""), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"note\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"sample_reply\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":7"), std::string::npos);
  // kInvalidNode renders as null, not a sentinel integer.
  EXPECT_NE(json.find("\"node\":null"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(FlightRecorder, DumpWritesTheJsonDocument) {
  FlightRecorder recorder(2);
  recorder.record(0.5, Kind::kNote, net::NodeId{1},
                  sim::MessageClass::kControl);
  const std::string path = testing::TempDir() + "p2pse_flight_test.json";
  ASSERT_TRUE(recorder.dump(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), recorder.to_json());
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpToUnwritablePathReturnsFalse) {
  FlightRecorder recorder(2);
  EXPECT_FALSE(recorder.dump("/nonexistent-dir/p2pse-flight.json"));
}

harness::MatrixOptions flight_matrix(RunTelemetry* telemetry) {
  harness::MatrixOptions options;
  options.estimator = "sample_collide:l=20,T=4";
  options.scenario = "static";
  options.params.nodes = 500;
  options.params.estimations = 3;
  options.params.replicas = 2;
  options.params.seed = 7;
  options.params.threads = 2;
  options.params.telemetry = telemetry;
  return options;
}

// The crash path of every CLI: an armed ring holds the most recent sends of
// a real run and dumps them as a well-formed p2pse-flight document.
TEST(FlightRecorder, ArmedMatrixRunDumpsTheMostRecentSends) {
  RunTelemetry telemetry;
  telemetry.enable_flight(64);
  (void)harness::run_matrix(flight_matrix(&telemetry));

  const FlightRecorder* flight = telemetry.flight();
  ASSERT_NE(flight, nullptr);
  const auto events = flight->snapshot();
  ASSERT_GE(events.size(), 1u);
  ASSERT_LE(events.size(), 64u);
  EXPECT_GT(flight->recorded(), 64u);
  for (const auto& event : events) EXPECT_EQ(event.kind, Kind::kSend);

  const std::string path = testing::TempDir() + "p2pse_flight_matrix.json";
  ASSERT_TRUE(flight->dump(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  const std::string json = buffer.str();
  EXPECT_TRUE(is_json_document(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"p2pse-flight\""), std::string::npos);
  EXPECT_EQ(count_of(json, "\"kind\":\"send\""), events.size());
}

TEST(FlightRecorder, UnarmedTelemetryHasNoRingAndWritesNoDump) {
  RunTelemetry telemetry;
  (void)harness::run_matrix(flight_matrix(&telemetry));
  EXPECT_EQ(telemetry.flight(), nullptr);

  // The CLI crash handler is a no-op without --flight-record.
  const char* argv[] = {"p2pse_matrix", "--progress"};
  const harness::TelemetryCli cli =
      harness::TelemetryCli::from_args(support::Args(2, argv));
  ASSERT_NE(cli.sink(), nullptr);
  EXPECT_EQ(cli.sink()->flight(), nullptr);
  EXPECT_FALSE(cli.dump_flight_on_error("p2pse_matrix"));
}

TEST(FlightRecorder, EmptyRingWritesNoDump) {
  // A configuration error fails before the run records anything; an empty
  // dump would only say that nothing ran.
  const char* argv[] = {"p2pse_matrix", "--flight-record", "5"};
  const harness::TelemetryCli cli =
      harness::TelemetryCli::from_args(support::Args(3, argv));
  ASSERT_NE(cli.sink()->flight(), nullptr);
  EXPECT_EQ(cli.sink()->flight()->recorded(), 0u);
  EXPECT_FALSE(cli.dump_flight_on_error("p2pse_matrix"));
}

TEST(FlightRecorder, WellFormednessCheckRejectsTruncatedJson) {
  EXPECT_TRUE(is_json_document("{\"a\":[1,-2.5e3,null,\"x\"],\"b\":{}}\n"));
  EXPECT_FALSE(is_json_document("{\"a\":[1,2}"));
  EXPECT_FALSE(is_json_document("{\"a\":1,}"));
  EXPECT_FALSE(is_json_document("{\"a\":1} trailing"));
}

}  // namespace
}  // namespace p2pse::obs
