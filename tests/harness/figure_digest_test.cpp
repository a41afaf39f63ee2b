// Byte-identity lock over the whole figure table: every FigureSpec row runs
// at reduced scale with a telemetry sink attached, and the FNV-1a digests of
// its printed report, of its `sim` stats section and of its --csv file must
// match the values recorded below. A second table reruns the generators that
// route --net/--topo/--sizes (plus a run_matrix row) under a lossy channel, a
// clustered topology and a non-default size table, so the params-line
// suffixes and delay notes are locked too. A refactor of the replica setup
// (or of any generator) that changes one byte of any output fails here,
// naming the figure.
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
  std::uint64_t csv;     ///< FNV-1a of write_csv_file's output
};

// Recorded at seed 42, nodes <= 1000, estimations 3, replicas 2, threads 2.
constexpr FigureDigest kDigests[] = {
    {"fig01", 0x54ae8f33228ab155, 0x004e10fa3d5b7e51,
     0x132e1ecbe3be95d3},
    {"fig02", 0x54ae8f33228ab155, 0x004e10fa3d5b7e51,
     0x132e1ecbe3be95d3},
    {"fig03", 0x68ebbe38fafd6aa2, 0x9924da2338754301,
     0xbd226dc136663d09},
    {"fig04", 0x68ebbe38fafd6aa2, 0x9924da2338754301,
     0xbd226dc136663d09},
    {"fig05", 0x73da85f7066d96b2, 0x59f9f2d3e4c09be2,
     0xf26ed6b5aa92f0a2},
    {"fig06", 0x73da85f7066d96b2, 0x59f9f2d3e4c09be2,
     0xf26ed6b5aa92f0a2},
    {"fig07", 0x0d488294fe093185, 0x43f30290361162aa,
     0x83e9adf26687db9c},
    {"fig08", 0x584f1f2f3d54b8b1, 0xfe28323d6ef41253,
     0x785094011387aba5},
    {"fig09", 0x3a40efc2ba50c53b, 0xb7301ec34b15d5d1,
     0x687a131166af5c57},
    {"fig10", 0x010bfd03076015d1, 0x4af4ee51900f70b3,
     0x3c9e3f173923b781},
    {"fig11", 0x251aaf0bb6e3d560, 0xcc5708e3d7089d64,
     0x70b05203c1c748ee},
    {"fig12", 0x7df9f9979296aae1, 0x35167d5e31ffeb02,
     0x404defa4877bcc37},
    {"fig13", 0x33297af8025ec5d9, 0x8544e87f101a0fca,
     0x6c8baf9e5a881286},
    {"fig14", 0x53de1651189468fa, 0x9f6c3dfb1d3c178a,
     0x46fe09fa54f1ab4f},
    {"fig15", 0x03861309d08f7164, 0xec351f36a433384e,
     0x1898653434dbb81e},
    {"fig16", 0xce59013517bb33dc, 0x728a8b4da1c47c76,
     0x12d2ab1dd7d8ca40},
    {"fig17", 0x4eb708eefb5ccc1d, 0x5e0a7624ffd6aa26,
     0x9ba661f920ba9103},
    {"fig18", 0x81f7f1eeccb8e808, 0xe7fcce4f566fe203,
     0x319eba5f73c9630f},
    {"table1", 0x39c9692326e71332, 0xadec8b4053a01f30,
     0x005a21b212eeafd0},
    {"ablation_sc_l_sweep", 0x298c6f4b0022cd45, 0xc94b1e17c74d75e8,
     0x0526d6819c2ba871},
    {"ablation_sc_timer_sweep", 0x3113bb8b1e154de0, 0xc9c911caa7889f7a,
     0x27a476203b593351},
    {"ablation_hs_oracle", 0x27d2fdc8c2b51530, 0xc73e789b75f2563f,
     0xedbd7d1cf37289d9},
    {"ablation_estimators", 0x302853c7344c0656, 0x23fd85862b92518e,
     0x33d3fb50c2482703},
    {"ablation_homogeneous", 0x2434a88db73f1d58, 0xc3e63a7f500b5d66,
     0xc5e91501c348a22b},
    {"ablation_baselines", 0x246973758e7c4590, 0x0aded6338d5c0a46,
     0x1f2f8a1e2271970f},
    {"ablation_cyclon", 0x5fcafab272880d28, 0x6e23d8044a35217a,
     0x4484924cc0cb4334},
    {"ablation_delay", 0x3ccbc04dea4b31bf, 0x1c90f4fa7df4a438,
     0x48138e35b7dc01f6},
    {"ablation_structured", 0x4f5afcd6dd0b0924, 0xe919ccb01f4e717e,
     0x8016e0f1e10a2fe7},
    {"ablation_polling", 0xcd3e784dcb64cfe1, 0x6235c3d70df69b42,
     0x082cf818d8936831},
    {"ablation_samplers", 0xb5eae371058c1e2d, 0x56715ac4c81f71f8,
     0xa3953bb959777d6f},
    {"ablation_oscillating", 0x2203ce58613a78de, 0xf19b7311077b2524,
     0x609be554690b64e0},
    {"trace_weibull", 0xcbe3aca7ad3191a5, 0x60e5bbc2bd5a948d,
     0xd98913e7351bebe7},
    {"trace_diurnal", 0xf77640132624801e, 0x79d91a3fda53d6e5,
     0x83947cd2135083ef},
    {"trace_flashcrowd", 0x6639c794965e0bfa, 0x47b7b8d3083cf5fa,
     0x1d5bd57f9bbfcdaa},
    {"ext_loss_accuracy", 0xef83996e5fa98ca2, 0x0ff31cbdc6883487,
     0x8bd10e211768d487},
    {"ext_loss_delay", 0x808b4c364bfbb529, 0x4ee6555c769cfa26,
     0x84df5af5d34520a3},
    {"ext_topo_accuracy", 0x5b9c0a81b5d12594, 0x07057c111c5328ab,
     0x58395c924614af6b},
    {"ext_topo_delay", 0xddcb31fd6d3eaba2, 0x6f5aa923cae687b8,
     0xdb178381d7604ce4},
};

// Recorded as above, plus routed(): net:loss=0.05,latency=exp:5,
// topo:clustered,regions=4 and sizes:header=48,walk_step=64.
constexpr FigureDigest kRoutedDigests[] = {
    {"fig01", 0xdac6c119110c1575, 0xffb6221569aaa862,
     0x945e8db5eaa3786a},
    {"fig03", 0x887256b1d8786033, 0xe69fc0d731f1ba06,
     0xb2363f92764d5ae1},
    {"fig05", 0x0f8a1525836db88c, 0x57eba35591ee314f,
     0xbc6d6179f64085ed},
    {"fig09", 0x75e1968ef2089363, 0x083e3570ae1cedcc,
     0x76056a7df075095f},
    {"fig12", 0x24be36d03c038059, 0x85efbb68ffcf83da,
     0x2620d9c8668b2b0b},
    {"fig15", 0xafa40e3407e4b61a, 0xc5b7765e07e8bcb8,
     0xd789a8b59aade574},
    {"ablation_oscillating", 0xe472e938a298b663, 0xecb36a91a36f3e75,
     0x62115128f3ace5b3},
    {"matrix_random_tour", 0x3ff997d894476dc4, 0x3785635278790e17,
     0xb33f2d3217fccd1d},
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

/// The routed variant: every delivery-layer knob off its default, so each
/// params-line suffix and delay note appears in the output.
FigureParams routed(FigureParams p) {
  p.net = "net:loss=0.05,latency=exp:5";
  p.topo = "topo:clustered,regions=4";
  p.sizes = "sizes:header=48,walk_step=64";
  return p;
}

/// The matrix row of the routed table: an off-paper estimator, so the
/// dynamic report's generic caption is locked as well.
constexpr std::string_view kMatrixId = "matrix_random_tour";

/// Runs `produce` with a telemetry sink attached and digests its outputs.
template <typename Produce>
FigureDigest measure(std::string_view id, FigureParams p, Produce produce) {
  obs::RunTelemetry telemetry;
  p.telemetry = &telemetry;
  const FigureReport report = produce(p);
  std::ostringstream printed;
  print_report(printed, report);
  std::ostringstream csv;
  write_csv_file(csv, report);
  return {id, fnv1a(printed.str()),
          fnv1a(obs::sim_section(report.id, report.params, telemetry.sim())),
          fnv1a(csv.str())};
}

FigureDigest measure(const FigureSpec& spec, const FigureParams& p) {
  return measure(spec.id, p,
                 [&](const FigureParams& q) { return run_figure(spec, q); });
}

FigureDigest measure_routed(std::string_view id) {
  if (id == kMatrixId) {
    const FigureParams p = routed(reduced(*find_figure("fig09")));
    return measure(id, p, [](const FigureParams& q) {
      return run_matrix({.estimator = "random_tour",
                         .scenario = "catastrophic",
                         .params = q});
    });
  }
  const FigureSpec* spec = find_figure(id);
  if (spec == nullptr) ADD_FAILURE() << "unknown figure " << id;
  return spec == nullptr ? FigureDigest{id, 0, 0, 0}
                         : measure(*spec, routed(reduced(*spec)));
}

void PrintTo(const FigureDigest& d, std::ostream* os) { *os << d.id; }

std::string row(const FigureDigest& d) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016llx, 0x%016llx, 0x%016llx},",
                std::string(d.id).c_str(),
                static_cast<unsigned long long>(d.report),
                static_cast<unsigned long long>(d.sim),
                static_cast<unsigned long long>(d.csv));
  return buf;
}

void expect_digests(const FigureDigest& actual, const FigureDigest& expected) {
  EXPECT_EQ(actual.report, expected.report) << "actual: " << row(actual);
  EXPECT_EQ(actual.sim, expected.sim) << "actual: " << row(actual);
  EXPECT_EQ(actual.csv, expected.csv) << "actual: " << row(actual);
}

std::string param_name(const ::testing::TestParamInfo<FigureDigest>& info) {
  return std::string(info.param.id);
}

class FigureDigestTest : public ::testing::TestWithParam<FigureDigest> {};

TEST_P(FigureDigestTest, ReportAndSimSectionMatchRecordedDigests) {
  const FigureDigest& expected = GetParam();
  const FigureSpec* spec = find_figure(expected.id);
  ASSERT_NE(spec, nullptr) << expected.id;
  expect_digests(measure(*spec, reduced(*spec)), expected);
}

INSTANTIATE_TEST_SUITE_P(EveryFigure, FigureDigestTest,
                         ::testing::ValuesIn(kDigests), param_name);

class RoutedFigureDigestTest : public ::testing::TestWithParam<FigureDigest> {};

TEST_P(RoutedFigureDigestTest, LossyClusteredSizedRunMatchesRecordedDigests) {
  const FigureDigest& expected = GetParam();
  expect_digests(measure_routed(expected.id), expected);
}

INSTANTIATE_TEST_SUITE_P(RoutedFigures, RoutedFigureDigestTest,
                         ::testing::ValuesIn(kRoutedDigests), param_name);

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
