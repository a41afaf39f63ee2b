// Opt-in scale smoke: drives the real p2pse_matrix binary at N = 10M nodes
// and asserts the run completes with a sane peak RSS. This is the "figures
// are tractable at ten million nodes" claim as an executable check — the
// SoA graph arena keeps a 10M static run near 1.2 GB (≈ 128 bytes/node
// all-in), where per-node heap vectors used to blow past that on the
// overlay alone.
//
// Child spawning + peak-RSS capture live in obs::run_and_measure (shared
// with the --stats-json host section), so this test measures with the same
// machinery the telemetry subsystem ships.
//
// Deliberately heavy (tens of seconds), so it is NOT in the default suite:
// configure with -DP2PSE_SCALE_TESTS=ON and run `ctest -L scale` (or invoke
// the p2pse_scale_smoke binary directly, any configuration).
#include <gtest/gtest.h>

#include <cstdint>

#include "p2pse/obs/rusage.hpp"

#ifndef P2PSE_MATRIX_BINARY
#error "build defines P2PSE_MATRIX_BINARY as the path to p2pse_matrix"
#endif

namespace {

TEST(ScaleSmoke, TenMillionNodeStaticFigureCompletesWithSaneRss) {
  // √N walk length, two collisions, one replica: the cheapest configuration
  // that still exercises graph build + identifier space + walks at 10M.
  const p2pse::obs::ChildResult result = p2pse::obs::run_and_measure({
      P2PSE_MATRIX_BINARY,
      "--estimator", "sample_collide:l=3162,T=2",
      "--scenario", "static",
      "--nodes", "10000000",
      "--estimations", "2",
      "--replicas", "1",
      "--threads", "1",
      "--seed", "42",
  });
  EXPECT_EQ(result.exit_code, 0) << "p2pse_matrix did not complete at N=10M";
  // Measured ≈1.2 GB (see README "Performance"); 4 GB flags a layout
  // regression (e.g. per-node allocations creeping back in) with plenty of
  // headroom over allocator/libc variance.
  EXPECT_GT(result.max_rss_kb, 0);
  EXPECT_LT(result.max_rss_kb, std::int64_t{4} * 1024 * 1024)
      << "peak RSS " << result.max_rss_kb / 1024 << " MB at N=10M";
}

}  // namespace
