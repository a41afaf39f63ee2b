// lint-fixture: treat-as src/p2pse/support/rng.hpp
// Fixture: the support/rng implementation files are the one place raw
// engine machinery is allowed — the allowlist must silence raw-engine (but
// NOT the entropy rule: even the RNG layer must never read wall-clock).
#include <random>

namespace fixture {

std::uint64_t reference_engine_for_tests() {
  std::mt19937_64 reference(0x9e3779b97f4a7c15ULL);  // allowlisted path
  return reference();
}

std::uint64_t still_banned_entropy() {
  std::random_device entropy;  // expect-lint: entropy
  return entropy();
}

// Both functions have a caller, so this header raises no no-caller finding.
inline const std::uint64_t kDrawn =
    reference_engine_for_tests() ^ still_banned_entropy();

}  // namespace fixture
