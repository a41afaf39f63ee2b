// Opt-in scale smoke: drives the real p2pse_matrix binary at N = 10M nodes
// with the paper's Sample&Collide setting and asserts the run completes,
// estimates N and keeps a sane peak RSS. This is the "figures are tractable
// at ten million nodes" claim as an executable check — one 8-byte record
// per node and a reserved adjacency arena keep a 10M static run near
// 0.64 GB (≈ 67 bytes/node all-in), where per-node heap vectors used to
// blow past twice that on the overlay alone.
//
// Deliberately heavy (tens of seconds), so it is NOT in the default suite:
// configure with -DP2PSE_SCALE_TESTS=ON and run `ctest -L scale` (or invoke
// the p2pse_scale_smoke binary directly, any configuration).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "p2pse/support/number.hpp"

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

struct CsvEstimate {
  double truth = 0.0;
  double estimate = 0.0;
  bool valid = false;
};

/// The rows of p2pse_matrix's --csv file (header
/// "replica,time,truth,estimate,messages,valid").
std::vector<CsvEstimate> read_estimates(const std::string& path) {
  std::vector<CsvEstimate> rows;
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return rows;  // header
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> cells;
    for (std::string cell; std::getline(fields, cell, ',');) {
      cells.push_back(cell);
    }
    if (cells.size() != 6) continue;
    rows.push_back({p2pse::support::parse_number<double>(cells[2]).value_or(0.0),
                    p2pse::support::parse_number<double>(cells[3]).value_or(0.0),
                    cells[5] == "1"});
  }
  return rows;
}

TEST(ScaleSmoke, TenMillionNodeStaticFigureCompletesWithSaneRss) {
  // The paper's Sample&Collide setting: l = 200 collisions to collect, walk
  // timer T = 10. One replica, two estimations: the cheapest run that still
  // exercises graph build + walks at 10M with an estimate worth checking.
  const std::string csv = testing::TempDir() + "p2pse_scale_smoke.csv";
  const ChildResult result = run_and_measure({
      P2PSE_MATRIX_BINARY,
      "--estimator", "sample_collide:l=200,T=10",
      "--scenario", "static",
      "--nodes", "10000000",
      "--estimations", "2",
      "--replicas", "1",
      "--threads", "1",
      "--seed", "42",
      "--csv", csv,
  });
  ASSERT_EQ(result.exit_code, 0) << "p2pse_matrix did not complete at N=10M";
  // Each estimate within 25% of N: l = 200 puts one estimate's spread near
  // 1/sqrt(200) ≈ 7%, and a broken setting (too few collisions, too short a
  // walk) misses by far more.
  const std::vector<CsvEstimate> rows = read_estimates(csv);
  std::remove(csv.c_str());
  ASSERT_EQ(rows.size(), 2u) << "expected one CSV row per estimation";
  for (const CsvEstimate& row : rows) {
    EXPECT_TRUE(row.valid);
    EXPECT_LT(std::abs(row.estimate - row.truth), 0.25 * row.truth)
        << "estimate " << row.estimate << " for N = " << row.truth;
  }
  // Measured ≈0.64 GB (see README "Performance"); 1 GB flags a layout
  // regression (a second per-node array, or the arena reallocating during
  // the build) with headroom over allocator/libc variance.
  EXPECT_GT(result.max_rss_kb, 0);
  EXPECT_LT(result.max_rss_kb, std::int64_t{1} * 1024 * 1024)
      << "peak RSS " << result.max_rss_kb / 1024 << " MB at N=10M";
}

}  // namespace
