// lint-fixture: treat-as src/p2pse/support/fixture.hpp
// Fixture: the no-caller rule. A function declared in a src/p2pse/ header
// needs a reference beyond its declarations and definitions somewhere in
// the linted files (for a fixture: in this file). A reasoned
// allow(no-caller) keeps a test seam that reads private state; on a
// function that has a caller the suppression is stale.
#include <cstddef>
#include <vector>

namespace fixture {

class Arena {
 public:
  explicit Arena(std::size_t slots) : slots_(slots) {}
  Arena(const Arena&) = default;

  [[nodiscard]] std::size_t used() const { return slots_ - spare(); }
  [[nodiscard]] std::size_t peak() const;  // expect-lint: no-caller
  bool operator==(const Arena& other) const = default;

  /// Slots on the free list, read by the arena-stability tests only.
  // p2pse-lint: allow(no-caller) tests read the private free list
  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }

  // expect-lint(+1): stale-suppression
  // p2pse-lint: allow(no-caller) used() calls it, so nothing is shielded
  [[nodiscard]] std::size_t spare() const;

 private:
  std::size_t slots_;
  std::vector<std::size_t> free_;
};

// An out-of-class definition is neither a caller nor a second finding.
inline std::size_t Arena::peak() const { return slots_; }
inline std::size_t Arena::spare() const { return free_.size(); }

template <class T>
[[nodiscard]] T twice(T value) {
  if constexpr (sizeof(T) > 1) return value + value;
  return value;
}

// Overloads and a later inline definition share one finding.
[[nodiscard]] std::size_t total(const Arena& arena);  // expect-lint: no-caller
[[nodiscard]] std::size_t total(const std::vector<Arena>& arenas);

inline std::size_t total(const std::vector<Arena>& arenas) {
  std::size_t sum = 0;
  for (const Arena& arena : arenas) sum += twice(arena.used());
  return sum;
}

}  // namespace fixture
