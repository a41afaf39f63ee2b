#include "p2pse/obs/rusage.hpp"

#include <sys/resource.h>

namespace p2pse::obs {

std::int64_t peak_rss_kb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

}  // namespace p2pse::obs
