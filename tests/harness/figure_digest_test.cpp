// Byte-identity lock over the whole figure table: every FigureSpec row runs
// at reduced scale with a telemetry sink attached, and the FNV-1a digests of
// its printed report and of its `sim` stats section must match the values
// recorded below. A refactor of the replica setup (or of any generator) that
// changes one byte of either output fails here, naming the figure.
//
// To re-record after an intended output change, run the suite and copy the
// "actual" row each failure prints into kDigests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

#include "p2pse/harness/figures.hpp"
#include "p2pse/harness/report.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/obs/telemetry.hpp"

namespace p2pse::harness {
namespace {

struct FigureDigest {
  std::string_view id;
  std::uint64_t report;  ///< FNV-1a of print_report's output
  std::uint64_t sim;     ///< FNV-1a of obs::sim_section
};

// Recorded at seed 42, nodes <= 1000, estimations 3, replicas 2, threads 2.
constexpr FigureDigest kDigests[] = {
    {"fig01", 0x54ae8f33228ab155, 0x004e10fa3d5b7e51},
    {"fig02", 0x54ae8f33228ab155, 0x004e10fa3d5b7e51},
    {"fig03", 0x68ebbe38fafd6aa2, 0x9924da2338754301},
    {"fig04", 0x68ebbe38fafd6aa2, 0x9924da2338754301},
    {"fig05", 0x73da85f7066d96b2, 0x59f9f2d3e4c09be2},
    {"fig06", 0x73da85f7066d96b2, 0x59f9f2d3e4c09be2},
    {"fig07", 0x0d488294fe093185, 0x43f30290361162aa},
    {"fig08", 0x584f1f2f3d54b8b1, 0xfe28323d6ef41253},
    {"fig09", 0x3a40efc2ba50c53b, 0xb7301ec34b15d5d1},
    {"fig10", 0x010bfd03076015d1, 0x4af4ee51900f70b3},
    {"fig11", 0x251aaf0bb6e3d560, 0xcc5708e3d7089d64},
    {"fig12", 0x7df9f9979296aae1, 0x35167d5e31ffeb02},
    {"fig13", 0x33297af8025ec5d9, 0x8544e87f101a0fca},
    {"fig14", 0x53de1651189468fa, 0x9f6c3dfb1d3c178a},
    {"fig15", 0x03861309d08f7164, 0xec351f36a433384e},
    {"fig16", 0xce59013517bb33dc, 0x728a8b4da1c47c76},
    {"fig17", 0x4eb708eefb5ccc1d, 0x5e0a7624ffd6aa26},
    {"fig18", 0x81f7f1eeccb8e808, 0xe7fcce4f566fe203},
    {"table1", 0x39c9692326e71332, 0xadec8b4053a01f30},
    {"ablation_sc_l_sweep", 0x298c6f4b0022cd45, 0xc94b1e17c74d75e8},
    {"ablation_sc_timer_sweep", 0x3113bb8b1e154de0, 0xc9c911caa7889f7a},
    {"ablation_hs_oracle", 0x27d2fdc8c2b51530, 0xc73e789b75f2563f},
    {"ablation_estimators", 0x302853c7344c0656, 0x23fd85862b92518e},
    {"ablation_homogeneous", 0x2434a88db73f1d58, 0xc3e63a7f500b5d66},
    {"ablation_baselines", 0x246973758e7c4590, 0x0aded6338d5c0a46},
    {"ablation_cyclon", 0x5fcafab272880d28, 0x6e23d8044a35217a},
    {"ablation_delay", 0x3ccbc04dea4b31bf, 0x2aac26bebd69c688},
    {"ablation_structured", 0x4f5afcd6dd0b0924, 0xe919ccb01f4e717e},
    {"ablation_polling", 0xcd3e784dcb64cfe1, 0x6235c3d70df69b42},
    {"ablation_samplers", 0xb5eae371058c1e2d, 0xae347a113f9115de},
    {"ablation_oscillating", 0x2203ce58613a78de, 0xf19b7311077b2524},
    {"trace_weibull", 0xcbe3aca7ad3191a5, 0x60e5bbc2bd5a948d},
    {"trace_diurnal", 0xf77640132624801e, 0x79d91a3fda53d6e5},
    {"trace_flashcrowd", 0x6639c794965e0bfa, 0x47b7b8d3083cf5fa},
    {"ext_loss_accuracy", 0xef83996e5fa98ca2, 0x0ff31cbdc6883487},
    {"ext_loss_delay", 0x808b4c364bfbb529, 0x4ee6555c769cfa26},
    {"ext_topo_accuracy", 0x5b9c0a81b5d12594, 0x07057c111c5328ab},
    {"ext_topo_delay", 0xddcb31fd6d3eaba2, 0x6f5aa923cae687b8},
};

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

FigureParams reduced(const FigureSpec& spec) {
  FigureParams p = spec.defaults;
  p.nodes = std::min<std::size_t>(p.nodes, 1000);
  p.seed = 42;
  p.estimations = 3;
  p.replicas = 2;
  p.threads = 2;
  p.agg_rounds = 10;
  return p;
}

FigureDigest measure(const FigureSpec& spec) {
  FigureParams p = reduced(spec);
  obs::RunTelemetry telemetry;
  p.telemetry = &telemetry;
  const FigureReport report = run_figure(spec, p);
  std::ostringstream printed;
  print_report(printed, report);
  return {spec.id, fnv1a(printed.str()),
          fnv1a(obs::sim_section(report.id, report.params, telemetry.sim()))};
}

void PrintTo(const FigureDigest& d, std::ostream* os) { *os << d.id; }

std::string row(const FigureDigest& d) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016llx, 0x%016llx},",
                std::string(d.id).c_str(),
                static_cast<unsigned long long>(d.report),
                static_cast<unsigned long long>(d.sim));
  return buf;
}

class FigureDigestTest : public ::testing::TestWithParam<FigureDigest> {};

TEST_P(FigureDigestTest, ReportAndSimSectionMatchRecordedDigests) {
  const FigureDigest& expected = GetParam();
  const FigureSpec* spec = find_figure(expected.id);
  ASSERT_NE(spec, nullptr) << expected.id;
  const FigureDigest actual = measure(*spec);
  EXPECT_EQ(actual.report, expected.report) << "actual: " << row(actual);
  EXPECT_EQ(actual.sim, expected.sim) << "actual: " << row(actual);
}

INSTANTIATE_TEST_SUITE_P(
    EveryFigure, FigureDigestTest, ::testing::ValuesIn(kDigests),
    [](const ::testing::TestParamInfo<FigureDigest>& info) {
      return std::string(info.param.id);
    });

TEST(FigureDigests, TableCoversEveryFigureSpec) {
  for (const FigureSpec& spec : figure_specs()) {
    const bool listed =
        std::any_of(std::begin(kDigests), std::end(kDigests),
                    [&](const FigureDigest& d) { return d.id == spec.id; });
    EXPECT_TRUE(listed) << "no recorded digest for " << spec.id;
  }
  EXPECT_EQ(std::size(kDigests), figure_specs().size());
}

}  // namespace
}  // namespace p2pse::harness
