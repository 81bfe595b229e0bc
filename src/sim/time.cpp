#include "sim/time.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace cbsim::sim {

SimTime SimTime::seconds(double s) {
  if (std::isnan(s)) [[unlikely]] {
    throw std::invalid_argument("SimTime::seconds: NaN is not a time");
  }
  const double p = std::round(s * 1e12);
  if (p >= static_cast<double>(std::numeric_limits<std::int64_t>::max())) return max();
  if (p <= static_cast<double>(std::numeric_limits<std::int64_t>::min())) {
    return SimTime{std::numeric_limits<std::int64_t>::min()};
  }
  return SimTime{static_cast<std::int64_t>(p)};
}

SimTime SimTime::micros(double us) { return seconds(us * 1e-6); }

std::string SimTime::str() const {
  const double abs = std::abs(static_cast<double>(ps_));
  char buf[48];
  if (abs >= 1e12) {
    std::snprintf(buf, sizeof buf, "%.3fs", toSeconds());
  } else if (abs >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3fms", toSeconds() * 1e3);
  } else if (abs >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fus", toMicros());
  } else if (abs >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2fns", toNanos());
  } else {
    std::snprintf(buf, sizeof buf, "%lldps", static_cast<long long>(ps_));
  }
  return buf;
}

}  // namespace cbsim::sim
