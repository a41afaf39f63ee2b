// Opt-in scale smoke: drives the real p2pse_matrix binary at N = 10M nodes
// and asserts the run completes with a sane peak RSS. This is the "figures
// are tractable at ten million nodes" claim as an executable check — the
// SoA graph arena keeps a 10M static run near 1.2 GB (≈ 128 bytes/node
// all-in), where per-node heap vectors used to blow past that on the
// overlay alone.
//
// Deliberately heavy (tens of seconds), so it is NOT in the default suite:
// configure with -DP2PSE_SCALE_TESTS=ON and run `ctest -L scale` (or invoke
// the p2pse_scale_smoke binary directly, any configuration).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#ifndef P2PSE_MATRIX_BINARY
#error "build defines P2PSE_MATRIX_BINARY as the path to p2pse_matrix"
#endif

namespace {

struct ChildResult {
  int exit_code = -1;
  std::int64_t max_rss_kb = 0;
};

/// fork/exec `argv` (argv[0] is the binary path), wait for completion, and
/// report the child's exit code and peak RSS in kilobytes (wait4 ru_maxrss).
/// The child's stdout is redirected to /dev/null. On fork/wait failure the
/// exit code stays -1.
ChildResult run_and_measure(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    raw.push_back(const_cast<char*>(arg.c_str()));
  }
  raw.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    // Child: silence the run's stdout; the caller only wants exit + RSS.
    if (freopen("/dev/null", "w", stdout) == nullptr) _exit(127);
    execv(raw[0], raw.data());
    _exit(127);
  }
  ChildResult result;
  if (pid < 0) return result;
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) return result;
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  result.max_rss_kb = static_cast<std::int64_t>(usage.ru_maxrss);
  return result;
}

TEST(ScaleSmoke, TenMillionNodeStaticFigureCompletesWithSaneRss) {
  // √N walk length, two collisions, one replica: the cheapest configuration
  // that still exercises graph build + identifier space + walks at 10M.
  const ChildResult result = run_and_measure({
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
