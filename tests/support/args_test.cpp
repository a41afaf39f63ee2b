#include "p2pse/support/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "figure_main.hpp"

namespace p2pse::support {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, ParsesNameValuePairs) {
  const Args args = make_args({"prog", "--nodes", "1000", "--seed", "7"});
  EXPECT_EQ(args.get_uint("nodes", 0), 1000u);
  EXPECT_EQ(args.get_uint("seed", 0), 7u);
}

TEST(Args, ParsesEqualsSyntax) {
  const Args args = make_args({"prog", "--nodes=500"});
  EXPECT_EQ(args.get_uint("nodes", 0), 500u);
}

TEST(Args, BooleanFlagWithoutValue) {
  const Args args = make_args({"prog", "--verbose", "--nodes", "10"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_uint("nodes", 0), 10u);
}

TEST(Args, TrailingFlagIsBoolean) {
  const Args args = make_args({"prog", "--fast"});
  EXPECT_TRUE(args.get_bool("fast", false));
  EXPECT_TRUE(args.has("fast"));
}

TEST(Args, DefaultsWhenMissing) {
  const Args args = make_args({"prog"});
  EXPECT_EQ(args.get_uint("nodes", 123), 123u);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_double("rate", 2.5), 2.5);
  EXPECT_FALSE(args.get_bool("flag", false));
  EXPECT_FALSE(args.has("nodes"));
}

TEST(Args, HelpDetection) {
  EXPECT_TRUE(make_args({"prog", "--help"}).help_requested());
  EXPECT_TRUE(make_args({"prog", "-h"}).help_requested());
  EXPECT_FALSE(make_args({"prog"}).help_requested());
}

TEST(Args, PositionalArguments) {
  const Args args = make_args({"prog", "input.txt", "--n", "3", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(Args, MalformedIntegerThrows) {
  const Args args = make_args({"prog", "--nodes", "12x"});
  EXPECT_THROW((void)args.get_uint("nodes", 0), std::invalid_argument);
}

TEST(Args, NegativeUintThrows) {
  const Args args = make_args({"prog", "--nodes=-5"});
  EXPECT_THROW((void)args.get_uint("nodes", 0), std::invalid_argument);
}

TEST(Args, DoubleParsing) {
  const Args args = make_args({"prog", "--rate", "2.75"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.75);
}

TEST(Args, MalformedDoubleThrows) {
  const Args args = make_args({"prog", "--rate", "fast"});
  EXPECT_THROW((void)args.get_double("rate", 0.0), std::invalid_argument);
}

TEST(Args, BooleanSpellings) {
  EXPECT_TRUE(make_args({"p", "--f=yes"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"p", "--f=1"}).get_bool("f", false));
  EXPECT_FALSE(make_args({"p", "--f=off"}).get_bool("f", true));
  EXPECT_FALSE(make_args({"p", "--f=0"}).get_bool("f", true));
  EXPECT_THROW((void)make_args({"p", "--f=maybe"}).get_bool("f", false),
               std::invalid_argument);
}

TEST(Args, ProgramName) {
  EXPECT_EQ(make_args({"myprog"}).program(), "myprog");
}

TEST(Args, NegativeNumberAsValue) {
  // "-5" must not be mistaken for an option.
  const Args args = make_args({"prog", "--offset", "-5"});
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -5.0);
}

TEST(Args, GetUintReadsAtTheWidthOfItsDefault) {
  const Args args =
      make_args({"prog", "--l", "4294967297", "--m", "4294967295"});
  // A plain literal default reads 64 bits; an unsigned default its width.
  EXPECT_EQ(args.get_uint("l", 0), 4294967297u);
  static_assert(
      std::is_same_v<decltype(args.get_uint("m", std::uint32_t{0})),
                     std::uint32_t>);
  EXPECT_EQ(args.get_uint("m", std::uint32_t{0}), 4294967295u);
  EXPECT_EQ(args.get_uint("absent", std::uint32_t{7}), 7u);
}

TEST(Args, GetUintRefusesAValuePastItsWidth) {
  const Args args = make_args({"prog", "--l", "4294967297", "--n", "256"});
  // 2^32 + 1 read as 32 bits would wrap to 1 (an example once ran
  // Sample&Collide with l=1 this way).
  try {
    (void)args.get_uint("l", std::uint32_t{100});
    ADD_FAILURE() << "--l 4294967297 was accepted as a uint32";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--l: expected integer in [0, 4294967295], got "
                 "'4294967297'");
  }
  EXPECT_THROW((void)args.get_uint("n", std::uint8_t{0}),
               std::invalid_argument);
  EXPECT_EQ(args.get_uint("n", std::uint16_t{0}), 256u);
}

/// The message of the std::invalid_argument figure_params_from_args throws
/// for `argv`, or "" when it accepts them.
std::string figure_params_error(std::initializer_list<const char*> argv) {
  try {
    (void)harness::figure_params_from_args(make_args(argv),
                                           harness::FigureParams{});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Args, FigureParamsRejectUint32Overflow) {
  // --l and --agg-rounds fill uint32 fields: 2^32 + 1 must not wrap to 1.
  EXPECT_EQ(figure_params_error({"fig01", "--l", "4294967297"}),
            "--l: expected integer in [0, 4294967295], got '4294967297'");
  EXPECT_NE(figure_params_error({"fig01", "--agg-rounds", "4294967296"})
                .find("--agg-rounds"),
            std::string::npos);
  const harness::FigureParams params = harness::figure_params_from_args(
      make_args({"fig01", "--l", "4294967295", "--agg-rounds", "7"}), {});
  EXPECT_EQ(params.sc_collisions, 4294967295u);
  EXPECT_EQ(params.agg_rounds, 7u);
}

TEST(Args, PaperParamsOverlayWritesTExactly) {
  // The one overlay behind the figures, p2pse_matrix and p2pse_trace
  // replay: --T reaches the spec in shortest round-trip form, not rounded
  // to 6 digits (2.4999999 once ran as T=2.5 in the matrix).
  const harness::FigureParams exact = harness::figure_params_from_args(
      make_args({"p2pse_matrix", "--T", "2.4999999"}), {});
  EXPECT_EQ(harness::with_paper_params("sample_collide:l=20", exact, false),
            "sample_collide:l=20,T=2.4999999");
  const harness::FigureParams defaults;
  EXPECT_EQ(harness::with_paper_params("sample_collide", defaults, false),
            "sample_collide:l=200,T=10");
  // An explicit key wins; HopsSampling smooths only when asked.
  EXPECT_EQ(harness::with_paper_params("sample_collide:T=4", defaults, false),
            "sample_collide:T=4,l=200");
  EXPECT_EQ(harness::with_paper_params("aggregation", defaults, false),
            "aggregation:rounds=50");
  EXPECT_EQ(harness::with_paper_params("hops_sampling", defaults, false),
            "hops_sampling");
  EXPECT_EQ(harness::with_paper_params("hops_sampling", defaults, true),
            "hops_sampling:last_k=10");
}

TEST(Args, FigureParamsRejectZeroReplicas) {
  EXPECT_NE(figure_params_error({"fig01", "--replicas", "0"}).find(
                "--replicas"),
            std::string::npos);
  EXPECT_EQ(figure_params_error({"fig01", "--replicas", "1"}), "");
}

TEST(Args, FigureParamsRejectDegenerateOverlays) {
  EXPECT_NE(figure_params_error({"fig01", "--nodes", "0"}).find("--nodes"),
            std::string::npos);
  EXPECT_NE(figure_params_error({"fig01", "--nodes", "1"}).find("--nodes"),
            std::string::npos);
  EXPECT_EQ(figure_params_error({"fig01", "--nodes", "2"}), "");
}

TEST(Args, SingleLetterFlagsAreCaseSensitive) {
  // --l (collision target) and --T (timer) must not collide.
  const Args args = make_args({"fig01", "--l=10", "--T=2.0"});
  EXPECT_EQ(args.get_uint("l", 0), 10u);
  EXPECT_DOUBLE_EQ(args.get_double("T", 0.0), 2.0);
  EXPECT_FALSE(args.has("t"));
  EXPECT_FALSE(args.has("L"));
}

TEST(Args, ThreadsZeroMeansAuto) {
  const Args args = make_args({"fig01", "--threads", "0"});
  EXPECT_EQ(args.get_uint("threads", 4), 0u);
}

TEST(Args, RequireKnownAcceptsListedFlags) {
  const Args args = make_args({"fig01", "--nodes", "100", "--seed=7"});
  EXPECT_NO_THROW(args.require_known({"nodes", "seed", "threads"}));
}

TEST(Args, RequireKnownRejectsTypoedFlagListingValidNames) {
  // The motivating bug: "--node" (typo) used to silently fall back to the
  // default overlay size and corrupt sweeps.
  const Args args = make_args({"fig01", "--node", "100", "--seed=7"});
  try {
    args.require_known({"nodes", "seed"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--node"), std::string::npos);
    EXPECT_NE(what.find("--nodes"), std::string::npos);
    EXPECT_NE(what.find("--seed"), std::string::npos);
  }
}

TEST(Args, RequireKnownIgnoresHelpAndPositionals) {
  const Args args = make_args({"fig01", "positional", "--help"});
  EXPECT_NO_THROW(args.require_known({"nodes"}));
}

TEST(Args, RequireKnownReportsEveryUnknownFlag) {
  const Args args = make_args({"fig01", "--alpha=1", "--beta=2"});
  try {
    args.require_known({"nodes"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--alpha"), std::string::npos);
    EXPECT_NE(what.find("--beta"), std::string::npos);
  }
}

}  // namespace
}  // namespace p2pse::support
