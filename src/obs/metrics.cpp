#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace cbsim::obs {

Metrics::Id Metrics::intern(std::string_view name, Kind kind) {
  const auto it = index_.lower_bound(name);
  if (it != index_.end() && it->first == name) return it->second;
  const Id id{static_cast<std::uint32_t>(entries_.size())};
  entries_.push_back(Entry{kind, 0.0, 0.0});
  index_.emplace_hint(it, std::string(name), id);
  return id;
}

const Metrics::Entry* Metrics::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &at(it->second);
}

double Metrics::value(std::string_view name) const {
  const Entry* e = find(name);
  return e == nullptr ? 0.0 : e->value;
}

double Metrics::maxValue(std::string_view name) const {
  const Entry* e = find(name);
  return e == nullptr ? 0.0 : e->max;
}

void Metrics::writeTable(std::ostream& os) const {
  std::size_t width = 0;
  for (const auto& [name, e] : entries()) width = std::max(width, name.size());
  for (const auto& [name, e] : entries()) {
    char buf[160];
    if (e.kind == Kind::Counter) {
      std::snprintf(buf, sizeof(buf), "%-*s %14.6g", static_cast<int>(width),
                    name.c_str(), e.value);
    } else {
      std::snprintf(buf, sizeof(buf), "%-*s %14.6g  (max %.6g)",
                    static_cast<int>(width), name.c_str(), e.value, e.max);
    }
    os << buf << '\n';
  }
}

}  // namespace cbsim::obs
