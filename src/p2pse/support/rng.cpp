#include "p2pse/support/rng.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
#include <vector>

// The hot draw paths (uniform_u64, uniform_real, exponential, normal, the
// batched fills) live in the header so they inline into callers; only the
// k-of-n sampler stays out of line.

namespace p2pse::support {
namespace {

/// Draws up to this many indices track their state on the stack: Floyd's
/// chosen set is a linear scan of the output, the dense pool (n < 4k) an
/// array. Larger draws fall back to heap containers.
constexpr std::size_t kSmallSample = 64;

}  // namespace

void RngStream::sample_without_replacement(std::size_t n,
                                           std::span<std::size_t> out) {
  const std::size_t k = out.size();
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  if (k == 0) return;
  // Two regimes: Floyd's algorithm for sparse draws, partial Fisher-Yates for
  // dense draws (k a large fraction of n).
  if (k * 4 <= n) {
    // Floyd: the chosen set is exactly out[0, i), and j is never in it.
    if (k <= kSmallSample) {
      for (std::size_t i = 0, j = n - k; j < n; ++i, ++j) {
        const std::size_t t = static_cast<std::size_t>(uniform_u64(j + 1));
        const auto chosen = out.first(i);
        out[i] = std::find(chosen.begin(), chosen.end(), t) != chosen.end()
                     ? j
                     : t;
      }
      return;
    }
    std::unordered_set<std::size_t> chosen;
    chosen.reserve(k * 2);
    for (std::size_t i = 0, j = n - k; j < n; ++i, ++j) {
      const std::size_t t = static_cast<std::size_t>(uniform_u64(j + 1));
      if (chosen.insert(t).second) {
        out[i] = t;
      } else {
        chosen.insert(j);
        out[i] = j;
      }
    }
  } else {
    std::array<std::size_t, 4 * kSmallSample> small;
    std::vector<std::size_t> large;
    if (n > small.size()) large.resize(n);
    const std::span<std::size_t> pool =
        n > small.size() ? std::span<std::size_t>(large)
                         : std::span<std::size_t>(small.data(), n);
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(uniform_u64(n - i));
      std::swap(pool[i], pool[j]);
      out[i] = pool[i];
    }
  }
}

}  // namespace p2pse::support
