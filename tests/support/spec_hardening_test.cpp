// Hardening across every spec grammar in the tree, CLI flag and trace
// field:
//   - duplicate keys: a repeated key used to be resolved silently (first
//     occurrence won through SpecValueReader::find), corrupting sweeps whose
//     command line was edited in place. All grammars reject them outright.
//   - numbers: every numeric key, flag and field goes through the one
//     reader in support/number.hpp, so NaN, infinities, negative values of
//     unsigned keys and values past a 32-bit key's width are typed errors
//     naming the key and the value. Those inputs used to run a different
//     configuration than the one written (l=4294967306 ran as l=10).
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "figure_main.hpp"
#include "p2pse/est/registry.hpp"
#include "p2pse/obs/size_model.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/support/spec_reader.hpp"
#include "p2pse/topo/topology.hpp"
#include "p2pse/trace/trace.hpp"
#include "p2pse/trace/workloads.hpp"

namespace p2pse {
namespace {

TEST(SpecHardening, ParseSpecRejectsDuplicateKeys) {
  EXPECT_THROW((void)support::parse_spec("name:a=1,a=2", "test spec"),
               std::invalid_argument);
  // Distinct keys still parse; order is preserved.
  const support::ParsedSpec ok = support::parse_spec("name:a=1,b=2", "test");
  EXPECT_EQ(ok.overrides.size(), 2u);
}

TEST(SpecHardening, EstimatorSpecRejectsDuplicateKeys) {
  EXPECT_THROW((void)est::EstimatorSpec::parse("sample_collide:l=10,l=20"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)est::EstimatorRegistry::global().build("sample_collide:l=10,l=20"),
      std::invalid_argument);
  EXPECT_NO_THROW(
      (void)est::EstimatorRegistry::global().build("sample_collide:l=10,T=2"));
}

TEST(SpecHardening, NetSpecRejectsDuplicateKeys) {
  EXPECT_THROW((void)sim::NetworkConfig::parse("net:loss=0.1,loss=0.2"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)sim::NetworkConfig::parse("net:loss=0.1,jitter=1"));
}

TEST(SpecHardening, TopoSpecRejectsDuplicateKeys) {
  EXPECT_THROW(
      (void)topo::TopologyConfig::parse("topo:clustered,prop=0.1,prop=0.2"),
      std::invalid_argument);
  EXPECT_NO_THROW(
      (void)topo::TopologyConfig::parse("topo:clustered,prop=0.1,spread=10"));
}

TEST(SpecHardening, TraceSpecRejectsDuplicateKeys) {
  EXPECT_THROW(
      (void)trace::build_trace("weibull,shape=0.5,shape=0.7", 100),
      std::invalid_argument);
  EXPECT_NO_THROW(
      (void)trace::build_trace("weibull,shape=0.5,duration=10", 100));
}

TEST(SpecHardening, SetDefaultStillLayersUnderExplicitKeys) {
  // The harness injects paper defaults via set_default; an explicit key
  // must win WITHOUT tripping the duplicate check (set_default skips
  // present keys instead of appending a second occurrence).
  est::EstimatorSpec spec = est::EstimatorSpec::parse("sample_collide:l=10");
  spec.set_default("l", "200");
  spec.set_default("T", "10");
  EXPECT_EQ(spec.canonical(), "sample_collide:l=10,T=10");
  EXPECT_NO_THROW((void)est::EstimatorSpec::parse(spec.canonical()));
}


// ---------------------------------------------------------------------------
// Numbers. The keys come from the lists each grammar already prints
// (--list, unknown-key errors); only their value types are spelled out here.

enum class Grammar { kEstimator, kNet, kTopo, kTrace, kSizes };

/// One numeric key of one model of one grammar.
struct NumericKey {
  Grammar grammar;
  std::string model;
  std::string key;
};

// Without a printer gtest shows the struct's bytes, so the listed test
// names would change with every build.
void PrintTo(const NumericKey& k, std::ostream* os) {
  *os << k.model << ',' << k.key;
}

/// Keys whose values are not numbers at all: enums, booleans, paths.
const std::set<std::string, std::less<>> kNonNumericKeys = {
    "estimator", "combine", "oracle", "push_pull", "path"};

/// Keys whose value is a colon-separated list of numbers, with the list the
/// test puts its bad token into ("%" marks the token).
std::string list_template(std::string_view key) {
  if (key == "latency") return "exp:%";
  if (key == "mix" || key == "dc" || key == "bb" || key == "mob") {
    return "%:0:0";
  }
  return "%";
}

/// Unsigned integer keys, and the subset that fills 32-bit fields. The
/// sizes grammar is unsigned throughout.
const std::set<std::string, std::less<>> kUnsignedKeys = {
    "l",         "gossip_to", "gossip_for", "gossip_until", "min_hops",
    "last_k",    "max_steps", "leafset",    "walk_length",  "rounds",
    "instances", "retries",   "regions",    "seed"};
const std::set<std::string, std::less<>> kUint32Keys = {
    "l",           "gossip_to", "gossip_for", "gossip_until", "min_hops",
    "walk_length", "rounds",    "instances",  "retries"};

bool is_unsigned(const NumericKey& k) {
  return k.grammar == Grammar::kSizes || kUnsignedKeys.contains(k.key);
}

std::vector<std::string> split_keys(std::string_view list) {
  std::vector<std::string> out;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view key = list.substr(0, comma);
    list = comma == std::string_view::npos ? std::string_view{}
                                           : list.substr(comma + 1);
    while (!key.empty() && key.front() == ' ') key.remove_prefix(1);
    if (!key.empty()) out.emplace_back(key);
  }
  return out;
}

std::vector<NumericKey> numeric_keys(Grammar grammar) {
  std::vector<NumericKey> out;
  const auto add = [&](std::string_view model, std::string_view keys) {
    for (std::string& key : split_keys(keys)) {
      if (kNonNumericKeys.contains(key)) continue;
      out.push_back({grammar, std::string(model), std::move(key)});
    }
  };
  switch (grammar) {
    case Grammar::kEstimator:
      for (const std::string& name : est::EstimatorRegistry::global().names()) {
        add(name, est::EstimatorRegistry::global().keys_help(name));
      }
      break;
    case Grammar::kNet:
      add("net", sim::NetworkConfig::keys_help());
      break;
    case Grammar::kTopo:
      for (const topo::TopologyModelInfo& info : topo::topology_model_infos()) {
        add(info.name, info.keys);
      }
      break;
    case Grammar::kTrace:
      for (const trace::TraceModelInfo& info : trace::trace_model_infos()) {
        add(info.name, info.keys);
      }
      break;
    case Grammar::kSizes:
      add("sizes", obs::MessageSizeModel::keys_help());
      break;
  }
  return out;
}

/// Parses `key=value` in the grammar and model of `k`.
void parse(const NumericKey& k, const std::string& value) {
  const std::string item = k.key + "=" + value;
  switch (k.grammar) {
    case Grammar::kEstimator:
      (void)est::EstimatorRegistry::global().build(k.model + ":" + item);
      return;
    case Grammar::kNet:
      (void)sim::NetworkConfig::parse("net:" + item);
      return;
    case Grammar::kTopo:
      (void)topo::TopologyConfig::parse("topo:" + k.model + "," + item);
      return;
    case Grammar::kTrace:
      (void)trace::build_trace(k.model + "," + item, 100);
      return;
    case Grammar::kSizes:
      (void)obs::MessageSizeModel::parse("sizes:" + item);
      return;
  }
}

/// Every bad token the reader must refuse for `k`, each a typed error whose
/// message names the key and the token.
void expect_bad_values_rejected(const NumericKey& k) {
  std::vector<std::string> tokens = {"nan", "inf", "-inf"};
  if (is_unsigned(k)) tokens.emplace_back("-1");
  if (kUint32Keys.contains(k.key)) tokens.emplace_back("4294967296");
  const std::string value_form = list_template(k.key);
  const std::size_t mark = value_form.find('%');
  for (const std::string& token : tokens) {
    std::string value = value_form;
    value.replace(mark, 1, token);
    SCOPED_TRACE(k.model + "," + k.key + "=" + value);
    try {
      parse(k, value);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + k.key + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
    }
  }
}

std::string key_name(const ::testing::TestParamInfo<NumericKey>& info) {
  return info.param.model + "_" + info.param.key;
}

class EstimatorSpecNumbers : public ::testing::TestWithParam<NumericKey> {};
TEST_P(EstimatorSpecNumbers, NamesKeyAndValue) {
  expect_bad_values_rejected(GetParam());
}
INSTANTIATE_TEST_SUITE_P(EveryKey, EstimatorSpecNumbers,
                         ::testing::ValuesIn(numeric_keys(Grammar::kEstimator)),
                         key_name);

class NetSpecNumbers : public ::testing::TestWithParam<NumericKey> {};
TEST_P(NetSpecNumbers, NamesKeyAndValue) {
  expect_bad_values_rejected(GetParam());
}
INSTANTIATE_TEST_SUITE_P(EveryKey, NetSpecNumbers,
                         ::testing::ValuesIn(numeric_keys(Grammar::kNet)),
                         key_name);

class TopoSpecNumbers : public ::testing::TestWithParam<NumericKey> {};
TEST_P(TopoSpecNumbers, NamesKeyAndValue) {
  expect_bad_values_rejected(GetParam());
}
INSTANTIATE_TEST_SUITE_P(EveryKey, TopoSpecNumbers,
                         ::testing::ValuesIn(numeric_keys(Grammar::kTopo)),
                         key_name);

// Keeps its original name and test ids, though the number reader now
// refuses these values before the generators' checks would.
class TraceSpecNonFinite : public ::testing::TestWithParam<NumericKey> {};
TEST_P(TraceSpecNonFinite, IsATypedGeneratorError) {
  expect_bad_values_rejected(GetParam());
}
INSTANTIATE_TEST_SUITE_P(EveryKey, TraceSpecNonFinite,
                         ::testing::ValuesIn(numeric_keys(Grammar::kTrace)),
                         key_name);

class SizesSpecNumbers : public ::testing::TestWithParam<NumericKey> {};
TEST_P(SizesSpecNumbers, NamesKeyAndValue) {
  expect_bad_values_rejected(GetParam());
}
INSTANTIATE_TEST_SUITE_P(EveryKey, SizesSpecNumbers,
                         ::testing::ValuesIn(numeric_keys(Grammar::kSizes)),
                         key_name);

TEST(SpecHardening, TypeListsNameOnlyListedKeys) {
  // A renamed key must not leave a stale entry that silently stops
  // covering the new name.
  std::set<std::string, std::less<>> listed;
  for (const Grammar grammar : {Grammar::kEstimator, Grammar::kNet,
                                Grammar::kTopo, Grammar::kTrace}) {
    for (const NumericKey& k : numeric_keys(grammar)) listed.insert(k.key);
  }
  for (const std::string& key : kUnsignedKeys) {
    EXPECT_TRUE(listed.contains(key)) << key;
  }
  for (const std::string& key : kUint32Keys) {
    EXPECT_TRUE(kUnsignedKeys.contains(key)) << key;
  }
}

/// what() of the std::invalid_argument `fn` throws, or "" if it returns.
template <class Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SpecHardening, OutOfWidthAndNonFiniteValuesGetTypedMessages) {
  struct Case {
    NumericKey key;
    const char* value;
    const char* expected;
  };
  const Case cases[] = {
      {{Grammar::kEstimator, "sample_collide", "l"}, "4294967306",
       "sample_collide: key 'l' expects an integer in [0, 4294967295], got "
       "'4294967306'"},
      {{Grammar::kEstimator, "aggregation", "rounds"}, "4294967300",
       "aggregation: key 'rounds' expects an integer in [0, 4294967295], got "
       "'4294967300'"},
      {{Grammar::kNet, "net", "retries"}, "4294967296",
       "net spec: key 'retries' expects an integer in [0, 4294967295], got "
       "'4294967296'"},
      {{Grammar::kNet, "net", "loss"}, "nan",
       "net spec: key 'loss' expects a finite number, got 'nan'"},
      {{Grammar::kNet, "net", "timeout"}, "nan",
       "net spec: key 'timeout' expects a finite number, got 'nan'"},
      {{Grammar::kNet, "net", "latency"}, "uniform:1:inf",
       "net spec: key 'latency' expects constant:H | uniform:LO:HI | "
       "exp:MEAN | lognormal:MU:SIGMA | pareto:XM:ALPHA, got 'uniform:1:inf' "
       "('inf' is not a finite number)"},
      {{Grammar::kTopo, "clustered", "penalty"}, "nan",
       "topo spec: key 'penalty' expects a finite number, got 'nan'"},
      {{Grammar::kTopo, "classes", "dc"}, "1:nan:0",
       "topo spec: key 'dc': 'nan' is not a finite number"},
      {{Grammar::kTrace, "weibull", "duration"}, "inf",
       "trace spec: weibull: key 'duration' expects a finite number, got "
       "'inf'"},
      {{Grammar::kSizes, "sizes", "header"}, "-1",
       "sizes spec: key 'header' expects a non-negative integer, got '-1'"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(rejection([&] { parse(c.key, c.value); }), c.expected);
  }
}

TEST(SpecHardening, OnlyPlainDecimalsConvert) {
  // from_chars's grammar: no blanks, no '+', no hex, no trailing text.
  for (const char* value : {" 0.5", "+0.5", "0x1p-1", "0.5 ", "0.5x", ""}) {
    SCOPED_TRACE(value);
    EXPECT_THROW((void)sim::NetworkConfig::parse(std::string("net:loss=") +
                                                 value),
                 std::invalid_argument);
  }
  for (const char* value : {" 7", "+7", "0x7", "7 ", "7.0", "1e3"}) {
    SCOPED_TRACE(value);
    EXPECT_THROW((void)obs::MessageSizeModel::parse(
                     std::string("sizes:header=") + value),
                 std::invalid_argument);
  }
  // Valid text converts to the value strtod/strtoull would give.
  EXPECT_EQ(sim::NetworkConfig::parse("net:loss=.25,jitter=1e-3").canonical(),
            "net:loss=0.25,latency=constant:0,jitter=0.001,timeout=50,"
            "retries=2");
  EXPECT_EQ(obs::MessageSizeModel::parse("sizes:header=18446744073709551615")
                .header,
            18446744073709551615u);
}

/// The rejection read_csv gives for a trace whose metadata and first row
/// are the given texts.
std::string csv_rejection(const std::string& duration,
                          const std::string& initial, const std::string& row) {
  std::istringstream in("# p2pse-trace v1\n# name: t\n# duration: " +
                        duration + "\n# initial_sessions: " + initial +
                        "\ntime,event,session\n" + row + "\n");
  return rejection([&] { (void)trace::ChurnTrace::read_csv(in); });
}

TEST(SpecHardening, TraceCsvFieldsNameFieldAndValue) {
  EXPECT_EQ(csv_rejection("100", "2", "1,join,2"), "");
  EXPECT_EQ(csv_rejection("100", "2", "nan,join,2"),
            "ChurnTrace: line 6: time is not a finite number: 'nan'");
  EXPECT_EQ(csv_rejection("nan", "2", "1,join,2"),
            "ChurnTrace: line 3: duration is not a finite number: 'nan'");
  EXPECT_EQ(csv_rejection("inf", "2", "1,join,2"),
            "ChurnTrace: line 3: duration is not a finite number: 'inf'");
  EXPECT_EQ(csv_rejection("100", "2", "1,join,-5"),
            "ChurnTrace: line 6: session is not a non-negative integer: '-5'");
  EXPECT_EQ(csv_rejection("100", "-1", "1,join,2"),
            "ChurnTrace: line 4: initial_sessions is not a non-negative "
            "integer: '-1'");
}

/// Every double flag a binary reads through Args.
constexpr const char* kDoubleFlags[] = {"T", "rounds-per-unit", "slack"};

TEST(SpecHardening, DoubleFlagsNameFlagAndValue) {
  for (const char* flag : kDoubleFlags) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      SCOPED_TRACE(std::string(flag) + "=" + value);
      const std::string arg = std::string("--") + flag + "=" + value;
      const char* argv[] = {"prog", arg.c_str()};
      const support::Args args(2, argv);
      EXPECT_EQ(rejection([&] { (void)args.get_double(flag, 1.0); }),
                std::string("--") + flag + ": expected finite number, got '" +
                    value + "'");
    }
  }
  // The figure binaries read --T through figure_params_from_args.
  const char* argv[] = {"fig01", "--T", "nan"};
  EXPECT_EQ(rejection([&] {
              (void)harness::figure_params_from_args(support::Args(3, argv),
                                                     harness::FigureParams{});
            }),
            "--T: expected finite number, got 'nan'");
}

}  // namespace
}  // namespace p2pse
