// Deterministic-sharding substrate: fixed shard counts, per-shard RNG
// substreams, index-ordered merges. The load-bearing property is
// worker-count invariance — every result must be a pure function of
// (seed, shard count), never of how many threads happened to run it.
#include "p2pse/support/sharding.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "p2pse/support/check.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::support {
namespace {

TEST(ParallelSharding, ShardRangesPartitionExactly) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u, 1001u}) {
    for (const std::size_t shards : {1u, 3u, 64u}) {
      const std::vector<ShardRange> ranges = shard_ranges(n, shards);
      ASSERT_EQ(ranges.size(), shards);
      std::size_t expect_begin = 0;
      std::size_t total = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(ranges[s].begin, expect_begin);
        EXPECT_LE(ranges[s].begin, ranges[s].end);
        // Largest-first layout: shard s gets n/shards + (s < n%shards).
        EXPECT_EQ(ranges[s].size(),
                  n / shards + (s < n % shards ? 1u : 0u));
        expect_begin = ranges[s].end;
        total += ranges[s].size();
      }
      EXPECT_EQ(expect_begin, n);
      EXPECT_EQ(total, n);
    }
  }
}

TEST(ParallelSharding, ShardRangesWithFewerItemsThanShards) {
  const std::vector<ShardRange> ranges = shard_ranges(3, 8);
  ASSERT_EQ(ranges.size(), 8u);
  EXPECT_EQ(ranges[0].size(), 1u);
  EXPECT_EQ(ranges[1].size(), 1u);
  EXPECT_EQ(ranges[2].size(), 1u);
  for (std::size_t s = 3; s < 8; ++s) EXPECT_TRUE(ranges[s].empty());
}

TEST(ParallelSharding, ExecutorVisitsEveryShardOnceAtAnyBudget) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ShardExecutor exec(workers);
    EXPECT_EQ(exec.workers(), workers);
    std::vector<std::atomic<int>> hits(64);
    exec.run(64, [&hits](std::size_t s) { hits[s]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelSharding, ExecutorInlineRunsInShardOrder) {
  const ShardExecutor exec(1);
  std::vector<std::size_t> order;  // safe: budget 1 executes inline
  exec.run(10, [&order](std::size_t s) { order.push_back(s); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelSharding, PerShardSubstreamsAreWorkerCountInvariant) {
  // The tentpole property one level down from ParallelReplicaRunner:
  // split("shard", s) substreams + index-ordered merge make the digest a
  // pure function of the seed, identical at every worker budget.
  const RngStream root(77);
  const auto digest_at = [&root](std::size_t workers) {
    ShardExecutor exec(workers);
    std::vector<std::uint64_t> digest(64);
    exec.run(64, [&](std::size_t s) {
      RngStream rng = root.split("shard", s);
      std::uint64_t acc = 0;
      for (int i = 0; i < 500; ++i) acc ^= rng.uniform_u64(~std::uint64_t{0});
      digest[s] = acc;
    });
    return digest;
  };
  const std::vector<std::uint64_t> sequential = digest_at(1);
  EXPECT_EQ(digest_at(2), sequential);
  EXPECT_EQ(digest_at(8), sequential);
}

TEST(ParallelSharding, ScopeHookBracketsEveryShardBody) {
  ShardExecutor exec(4);
  std::mutex mutex;
  std::set<std::size_t> opened;
  exec.set_scope_hook([&](std::size_t shard) -> std::shared_ptr<void> {
    const std::lock_guard<std::mutex> lock(mutex);
    opened.insert(shard);
    return nullptr;  // a null scope is legal
  });
  std::atomic<int> bodies{0};
  exec.run(16, [&](std::size_t shard) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      // The hook runs on the executing thread BEFORE the body.
      EXPECT_TRUE(opened.count(shard) == 1);
    }
    ++bodies;
  });
  EXPECT_EQ(bodies.load(), 16);
  EXPECT_EQ(opened.size(), 16u);
}

TEST(ParallelSharding, ExecutorPropagatesExceptions) {
  ShardExecutor exec(4);
  EXPECT_THROW(exec.run(8,
                        [](std::size_t s) {
                          if (s == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

TEST(ParallelSharding, ZeroShardsIsANoOp) {
  const ShardExecutor exec(4);
  exec.run(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelSharding, ZeroWorkersResolvesToHardware) {
  const ShardExecutor exec(0);
  EXPECT_GE(exec.workers(), 1u);
}

TEST(ParallelSharding, SimWorkerBudgetResolvesTheTwoKnobs) {
  // Un-nested (--threads 1): an explicit --sim-threads is taken verbatim,
  // exactly like --threads trusts its caller.
  EXPECT_EQ(sim_worker_budget(1, 1), 1u);
  EXPECT_EQ(sim_worker_budget(1, 8), 8u);
  EXPECT_EQ(sim_worker_budget(1, 3), 3u);
  // Auto (--sim-threads 0) always lands on something sane.
  EXPECT_GE(sim_worker_budget(1, 0), 1u);
  EXPECT_GE(sim_worker_budget(4, 0), 1u);
  // Nested: the budget never exceeds the request and never drops below 1,
  // so replicas x shards cannot oversubscribe.
  for (const std::size_t replicas : {2u, 4u, 16u}) {
    for (const std::size_t want : {1u, 2u, 8u}) {
      const std::size_t got = sim_worker_budget(replicas, want);
      EXPECT_GE(got, 1u);
      EXPECT_LE(got, want);
    }
  }
}

#if P2PSE_CHECK_ENABLED

TEST(CheckedBuildSharding, ShardRangesRejectsZeroShards) {
  EXPECT_THROW((void)shard_ranges(10, 0), CheckFailure);
}

#endif  // P2PSE_CHECK_ENABLED

}  // namespace
}  // namespace p2pse::support
