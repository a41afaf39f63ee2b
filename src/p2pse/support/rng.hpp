#pragma once
// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the simulator draws from its own RngStream,
// derived deterministically from a root seed and a textual tag. Simulations
// are therefore reproducible bit-for-bit regardless of how replicas are
// scheduled across threads.
//
// Engine: xoshiro256** (Blackman & Vigna), seeded via SplitMix64. Both are
// public-domain algorithms reimplemented here so the library has no
// dependency beyond the standard library.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

#include "p2pse/support/check.hpp"

#if P2PSE_CHECK_ENABLED
#include <thread>
#endif

namespace p2pse::support {

/// SplitMix64 step: used for seeding and for hashing tags into seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a hash of a string, for deriving per-component substreams.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// xoshiro256** engine. Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0xdeadbeefULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
    // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
    // zero outputs in a row, but guard anyway.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

/// A stream of random variates with convenience distributions and
/// deterministic substream derivation.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed = 0xdeadbeefULL) noexcept
      : seed_(seed), engine_(seed) {}

#if P2PSE_CHECK_ENABLED
  // Checked builds bind each stream to the first thread that draws from it
  // (cross-thread sharing silently corrupts replica independence). A copy
  // is a NEW stream value: it re-binds on its own first draw and restarts
  // its draw count.
  RngStream(const RngStream& other) noexcept
      : seed_(other.seed_), engine_(other.engine_) {}
  RngStream& operator=(const RngStream& other) noexcept {
    seed_ = other.seed_;
    engine_ = other.engine_;
    owner_ = {};
    draws_ = 0;
    return *this;
  }
#endif

  /// Root seed this stream was created with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derives an independent stream for component `tag` (and optional index),
  /// without perturbing this stream's state.
  [[nodiscard]] RngStream split(std::string_view tag, std::uint64_t index = 0) const noexcept {
    std::uint64_t mix = seed_ ^ (fnv1a(tag) + 0x9e3779b97f4a7c15ULL * (index + 1));
    return RngStream(splitmix64(mix));
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  /// Defined inline: this is the single hottest draw in the simulator
  /// (neighbor selection, churn victim selection, builder candidates), and
  /// keeping it in the header lets the engine step fuse into the caller.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t bound)
      P2PSE_CHECKED_NOEXCEPT {
    // bound == 0 would be a caller bug; return 0 deterministically rather
    // than dividing by zero. Callers assert on their side.
    if (bound == 0) return 0;
    account();
    return bounded_step(bound);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi)
      P2PSE_CHECKED_NOEXCEPT {
    if (lo >= hi) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_u64(span));
  }

  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform_real() P2PSE_CHECKED_NOEXCEPT {
    account();
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in (0, 1] — safe as a log() argument.
  [[nodiscard]] double uniform_real_open0() P2PSE_CHECKED_NOEXCEPT {
    return 1.0 - uniform_real();
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi)
      P2PSE_CHECKED_NOEXCEPT {
    return lo + (hi - lo) * uniform_real();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  /// p <= 0 and p >= 1 short-circuit without consuming a draw.
  [[nodiscard]] bool bernoulli(double p) P2PSE_CHECKED_NOEXCEPT {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_real() < p;
  }

  /// Exponentially distributed variate with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate = 1.0) P2PSE_CHECKED_NOEXCEPT {
    if (rate <= 0.0) return std::numeric_limits<double>::infinity();
    return -std::log(uniform_real_open0()) / rate;
  }

  /// Normally distributed variate (Box-Muller; consumes exactly two uniforms
  /// per call, so streams stay aligned regardless of the values drawn).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0)
      P2PSE_CHECKED_NOEXCEPT {
    // Box-Muller, cosine branch only: one variate per call from a fixed two
    // uniforms, no cached second variate (cached state would break split()'s
    // copy semantics and clone-based replication).
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    const double r = std::sqrt(-2.0 * std::log(uniform_real_open0()));
    return mean + stddev * r * std::cos(kTwoPi * uniform_real());
  }

  /// Pareto variate with scale xm > 0 and shape alpha > 0 (inverse CDF).
  [[nodiscard]] double pareto(double xm, double alpha) P2PSE_CHECKED_NOEXCEPT {
    if (xm <= 0.0 || alpha <= 0.0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return xm * std::pow(uniform_real_open0(), -1.0 / alpha);
  }

  /// Fills `out` with uniform reals in [0, 1), consuming the engine exactly
  /// as `out.size()` successive uniform_real() calls would — batched callers
  /// produce bit-identical streams to their scalar-loop predecessors.
  void fill_uniform(std::span<double> out) P2PSE_CHECKED_NOEXCEPT {
    account_batch(out.size());
    for (double& v : out) {
      v = static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    }
  }

  /// Fills `out` with uniform reals in [lo, hi), element-for-element equal
  /// to successive uniform_real(lo, hi) calls (same affine transform).
  void fill_uniform(std::span<double> out, double lo, double hi)
      P2PSE_CHECKED_NOEXCEPT {
    account_batch(out.size());
    for (double& v : out) {
      v = lo + (hi - lo) * (static_cast<double>(engine_() >> 11) * 0x1.0p-53);
    }
  }

  /// Picks a uniformly random element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> values)
      P2PSE_CHECKED_NOEXCEPT {
    return values[static_cast<std::size_t>(uniform_u64(values.size()))];
  }

#if P2PSE_CHECK_ENABLED
  /// Draws consumed since construction/assignment (checked builds only) —
  /// the per-split accounting the contract tests pin: a substream consumes
  /// draws only when ITS code path runs (e.g. an ideal channel draws 0).
  // p2pse-lint: allow(no-caller) contract tests read the private draw count
  [[nodiscard]] std::uint64_t debug_draw_count() const noexcept {
    return draws_;
  }
#endif

  /// Fills `out` with k = out.size() distinct indices drawn from [0, n).
  /// Requires k <= n. The order is part of the stream contract (figures
  /// depend on it). Draws of up to 64 indices allocate nothing.
  void sample_without_replacement(std::size_t n, std::span<std::size_t> out);

 private:
  /// One unaccounted Lemire bounded draw (bound > 0).
  [[nodiscard]] std::uint64_t bounded_step(std::uint64_t bound) noexcept {
#ifdef __SIZEOF_INT128__
    // Lemire's nearly-divisionless unbiased bounded generation.
    using uint128 = unsigned __int128;
    std::uint64_t x = engine_();
    uint128 m = static_cast<uint128>(x) * static_cast<uint128>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = engine_();
        m = static_cast<uint128>(x) * static_cast<uint128>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
#else
    // Portable rejection sampling fallback.
    const std::uint64_t limit = max() - max() % bound;
    std::uint64_t x;
    do {
      x = engine_();
    } while (x >= limit);
    return x % bound;
#endif
  }

  [[nodiscard]] static constexpr std::uint64_t max() noexcept {
    return Xoshiro256::max();
  }

  /// Contract hook on every draw: binds the stream to the first drawing
  /// thread and counts draws. Compiled to nothing in unchecked builds.
  void account() P2PSE_CHECKED_NOEXCEPT {
#if P2PSE_CHECK_ENABLED
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) {
      owner_ = self;
    } else {
      P2PSE_CHECK_MSG(owner_ == self,
                      "RngStream drawn from a second thread — replica "
                      "streams must not be shared; derive a per-thread "
                      "substream with split()");
    }
    ++draws_;
#endif
  }

  /// Batched equivalent of `n` account() calls: one thread-affinity check,
  /// draw count advances by n so checked-build accounting matches the
  /// scalar loop the batch replaces.
  void account_batch(std::size_t n) P2PSE_CHECKED_NOEXCEPT {
#if P2PSE_CHECK_ENABLED
    if (n == 0) return;
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) {
      owner_ = self;
    } else {
      P2PSE_CHECK_MSG(owner_ == self,
                      "RngStream drawn from a second thread — replica "
                      "streams must not be shared; derive a per-thread "
                      "substream with split()");
    }
    draws_ += n;
#else
    (void)n;
#endif
  }

  std::uint64_t seed_;
  Xoshiro256 engine_;
#if P2PSE_CHECK_ENABLED
  std::thread::id owner_{};
  std::uint64_t draws_ = 0;
#endif
};

}  // namespace p2pse::support
