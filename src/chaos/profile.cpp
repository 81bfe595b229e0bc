#include "chaos/profile.hpp"

#include <utility>

namespace cbsim::chaos {

std::string ChaosProfile::validate() const {
  if (horizonSec <= 0) return "horizon_sec must be positive";
  const struct {
    const char* name;
    double value;
  } rates[] = {
      {"endpoint_rate_hz", endpointRateHz}, {"trunk_rate_hz", trunkRateHz},
      {"switch_rate_hz", switchRateHz},     {"nam_rate_hz", namRateHz},
      {"crash_rate_hz", crashRateHz},       {"storm_rate_hz", stormRateHz},
  };
  for (const auto& r : rates) {
    if (r.value < 0) return std::string(r.name) + " must be >= 0";
  }
  if (windowMinSec <= 0) return "window_min_sec must be positive";
  if (windowMaxSec < windowMinSec) {
    return "window_max_sec must be >= window_min_sec";
  }
  if (downWeight < 0 || downWeight > 1) return "down_weight must be in [0, 1]";
  if (degradeMinFactor <= 0 || degradeMinFactor > 1) {
    return "degrade_min_factor must be in (0, 1]";
  }
  if (degradeMaxFactor < degradeMinFactor || degradeMaxFactor > 1) {
    return "degrade_max_factor must be in [degrade_min_factor, 1]";
  }
  if (crashRestartMinSec <= 0) return "crash_restart_min_sec must be positive";
  if (crashRestartMaxSec < crashRestartMinSec) {
    return "crash_restart_max_sec must be >= crash_restart_min_sec";
  }
  if (stormMinSize < 2) return "storm_min_size must be >= 2";
  if (stormMaxSize < stormMinSize) {
    return "storm_max_size must be >= storm_min_size";
  }
  if (stormSpanSec <= 0) return "storm_span_sec must be positive";
  if (dropProbMax < 0 || dropProbMax > 1) {
    return "drop_prob_max must be in [0, 1]";
  }
  if (corruptProbMax < 0 || corruptProbMax > 1) {
    return "corrupt_prob_max must be in [0, 1]";
  }
  return "";
}

template <class Io>
void fields(Io& io, ChaosProfile& p) {
  io.seconds("horizon_sec", p.horizonSec);
  io.number("endpoint_rate_hz", p.endpointRateHz);
  io.number("trunk_rate_hz", p.trunkRateHz);
  io.number("switch_rate_hz", p.switchRateHz);
  io.number("nam_rate_hz", p.namRateHz);
  io.number("crash_rate_hz", p.crashRateHz);
  io.number("storm_rate_hz", p.stormRateHz);
  io.seconds("window_min_sec", p.windowMinSec);
  io.seconds("window_max_sec", p.windowMaxSec);
  io.number("down_weight", p.downWeight);
  io.number("degrade_min_factor", p.degradeMinFactor);
  io.number("degrade_max_factor", p.degradeMaxFactor);
  io.seconds("crash_restart_min_sec", p.crashRestartMinSec);
  io.seconds("crash_restart_max_sec", p.crashRestartMaxSec);
  io.int32("storm_min_size", p.stormMinSize);
  io.int32("storm_max_size", p.stormMaxSize);
  io.seconds("storm_span_sec", p.stormSpanSec);
  io.number("drop_prob_max", p.dropProbMax);
  io.number("corrupt_prob_max", p.corruptProbMax);
  io.int32s("endpoint_targets", p.endpointTargets);
  io.int32s("trunk_targets", p.trunkTargets);
  io.int32s("switch_targets", p.switchTargets);
  io.int32s("nam_targets", p.namTargets);
  io.int32s("crash_targets", p.crashTargets);
}

ChaosProfile profileFromDesc(desc::Reader& r) {
  ChaosProfile p;
  fields(r, p);
  r.finish();
  const std::pair<const char*, const std::vector<int>*> targets[] = {
      {"endpoint_targets", &p.endpointTargets},
      {"trunk_targets", &p.trunkTargets},
      {"switch_targets", &p.switchTargets},
      {"nam_targets", &p.namTargets},
      {"crash_targets", &p.crashTargets},
  };
  for (const auto& [key, list] : targets) {
    for (std::size_t i = 0; i < list->size(); ++i) {
      if ((*list)[i] < 0) {
        r.child(key).item(i).fail("target index must be non-negative");
      }
    }
  }
  if (std::string err = p.validate(); !err.empty()) r.fail(err);
  return p;
}

desc::Value toDesc(const ChaosProfile& p) { return desc::write(p); }

}  // namespace cbsim::chaos
