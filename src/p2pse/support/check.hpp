#pragma once
// Checked-build contract layer.
//
// P2PSE_CHECK / P2PSE_CHECK_MSG assert the hot internal invariants the
// golden-file tests can only witness indirectly: RNG stream thread
// affinity, channel endpoint validity, membership bookkeeping, trace
// replay order. Configured via the P2PSE_CHECKED CMake option (ON by
// default outside Release; always ON in the sanitizer/tidy CI presets, OFF
// in the release preset).
//
// Semantics:
//  * Checked builds: a failed condition throws support::CheckFailure (a
//    std::logic_error) whose message carries file:line, the expression and
//    an optional note. Throwing — not aborting — keeps failures testable
//    and plays well with sanitizers.
//  * Unchecked builds: the macros compile to nothing; the condition is NOT
//    evaluated, so conditions must be side-effect free.
//  * Contracts never draw randomness or write output, so enabling them can
//    never change a figure byte — only turn a silent corruption into a
//    thrown CheckFailure.
//
// P2PSE_CHECKED_NOEXCEPT marks functions that are noexcept in unchecked
// builds but may throw CheckFailure when contracts are on.

#include <stdexcept>
#include <string>

#ifdef P2PSE_CHECKED
#define P2PSE_CHECK_ENABLED 1
#else
#define P2PSE_CHECK_ENABLED 0
#endif

namespace p2pse::support {

/// Thrown by a failed P2PSE_CHECK in checked builds.
class CheckFailure : public std::logic_error {
 public:
  CheckFailure(const char* file, int line, const char* expr,
               const std::string& message);
};

namespace detail {
[[noreturn]] void check_fail(const char* file, int line, const char* expr,
                             const std::string& message = {});
}  // namespace detail

}  // namespace p2pse::support

#if P2PSE_CHECK_ENABLED
#define P2PSE_CHECK(expr)                                              \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::p2pse::support::detail::check_fail(__FILE__, __LINE__, #expr); \
    }                                                                  \
  } while (false)
#define P2PSE_CHECK_MSG(expr, message)                                 \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::p2pse::support::detail::check_fail(__FILE__, __LINE__, #expr,  \
                                           (message));                 \
    }                                                                  \
  } while (false)
#define P2PSE_CHECKED_NOEXCEPT
#else
#define P2PSE_CHECK(expr) static_cast<void>(0)
#define P2PSE_CHECK_MSG(expr, message) static_cast<void>(0)
#define P2PSE_CHECKED_NOEXCEPT noexcept
#endif
