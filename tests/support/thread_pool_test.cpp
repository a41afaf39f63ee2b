#include "p2pse/support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "p2pse/support/rng.hpp"

namespace p2pse::support {
namespace {

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&hits](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::logic_error("bad");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, ParallelForRangesCoversAllIndicesExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_ranges(1000, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRangesZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for_ranges(
      0, [](std::size_t, std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForRangesHandlesFewerItemsThanChunks) {
  // n smaller than thread_count * 4 must still cover every index once,
  // with no empty-range calls.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(5);
  std::atomic<int> calls{0};
  pool.parallel_for_ranges(5, [&](std::size_t begin, std::size_t end) {
    EXPECT_LT(begin, end);
    ++calls;
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(calls.load(), 5);
}

TEST(ThreadPool, ParallelForRangesPropagatesFirstExceptionInRangeOrder) {
  ThreadPool pool(4);
  try {
    pool.parallel_for_ranges(100, [](std::size_t begin, std::size_t) {
      throw std::runtime_error("range " + std::to_string(begin));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    // Every range throws; the FIRST range's error (begin == 0) must win
    // regardless of completion order.
    EXPECT_STREQ(error.what(), "range 0");
  }
}

TEST(ThreadPool, ParallelForDelegatesToRanges) {
  // parallel_for is a per-index veneer over parallel_for_ranges; both must
  // agree on coverage.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> ranged{0};
  std::atomic<std::uint64_t> indexed{0};
  pool.parallel_for_ranges(257, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ranged += i;
  });
  pool.parallel_for(257, [&](std::size_t i) { indexed += i; });
  EXPECT_EQ(ranged.load(), indexed.load());
  EXPECT_EQ(ranged.load(), 257u * 256u / 2u);
}

TEST(ThreadPool, ManyTinyBatchesStress) {
  // Two-element batches finish almost at once, so the caller often sees the
  // batch complete while the last worker is still signalling it; the batch
  // lives on the caller's stack and must not be touched after that.
  ThreadPool pool(4);
  std::uint64_t total = 0;
  for (int batch = 0; batch < 5000; ++batch) {
    std::array<std::uint64_t, 2> hits{};
    pool.parallel_for_ranges(2, [&hits](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i] += i + 1;
    });
    total += hits[0] + hits[1];
  }
  EXPECT_EQ(total, 5000u * 3u);
}

TEST(ThreadPool, ParallelReplicasAreDeterministic) {
  // The core HPC property: per-replica RNG substreams make parallel
  // execution bit-identical to sequential execution.
  const RngStream root(2024);
  const auto replica_sum = [&root](std::size_t r) {
    RngStream rng = root.split("replica", r);
    std::uint64_t acc = 0;
    for (int i = 0; i < 1000; ++i) acc ^= rng.uniform_u64(~std::uint64_t{0});
    return acc;
  };
  std::vector<std::uint64_t> sequential(8);
  for (std::size_t r = 0; r < 8; ++r) sequential[r] = replica_sum(r);

  std::vector<std::uint64_t> parallel(8);
  ThreadPool pool(4);
  pool.parallel_for(8, [&](std::size_t r) { parallel[r] = replica_sum(r); });
  EXPECT_EQ(parallel, sequential);
}

}  // namespace
}  // namespace p2pse::support
