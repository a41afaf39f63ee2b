// lint-fixture: treat-as src/p2pse/support/fixture.cpp
// Fixture: no-caller checks header declarations only. A function a source
// file defines and nothing calls (here: every one) is not a finding; if
// it is public, its header declaration is.
#include <cstddef>

namespace fixture {
namespace {

std::size_t file_local_helper(std::size_t value) { return value + 1; }

}  // namespace

std::size_t defined_here(std::size_t value) { return value * 2; }

}  // namespace fixture
