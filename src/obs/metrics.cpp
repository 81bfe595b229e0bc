#include "obs/metrics.hpp"

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

}  // namespace cbsim::obs
