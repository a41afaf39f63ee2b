#include "p2pse/support/check.hpp"

namespace p2pse::support {
namespace {

std::string format_failure(const char* file, int line, const char* expr,
                           const std::string& message) {
  std::string out = "contract violated at ";
  out += file;
  out += ':';
  out += std::to_string(line);
  out += ": P2PSE_CHECK(";
  out += expr;
  out += ")";
  if (!message.empty()) {
    out += " — ";
    out += message;
  }
  return out;
}

}  // namespace

CheckFailure::CheckFailure(const char* file, int line, const char* expr,
                           const std::string& message)
    : std::logic_error(format_failure(file, line, expr, message)) {}

namespace detail {

void check_fail(const char* file, int line, const char* expr,
                const std::string& message) {
  throw CheckFailure(file, line, expr, message);
}

}  // namespace detail
}  // namespace p2pse::support
