#include "chaos/profile.hpp"

namespace cbsim::chaos {

namespace {

void targetsFromDesc(desc::Reader& r, std::string_view key,
                     std::vector<int>& out) {
  if (!r.has(key)) return;
  r.eachIn(key, [&](desc::Reader& t) {
    const int v = t.asInt32();
    if (v < 0) t.fail("target index must be non-negative");
    out.push_back(v);
  });
}

void targetsToDesc(desc::Value& v, const char* key,
                   const std::vector<int>& targets) {
  if (targets.empty()) return;
  desc::Value arr = desc::Value::array();
  for (int t : targets) arr.push(desc::Value::integer(t));
  v.set(key, std::move(arr));
}

}  // namespace

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

ChaosProfile profileFromDesc(desc::Reader& r) {
  ChaosProfile p;
  p.horizonSec = r.numberAt("horizon_sec", p.horizonSec);
  p.endpointRateHz = r.numberAt("endpoint_rate_hz", p.endpointRateHz);
  p.trunkRateHz = r.numberAt("trunk_rate_hz", p.trunkRateHz);
  p.switchRateHz = r.numberAt("switch_rate_hz", p.switchRateHz);
  p.namRateHz = r.numberAt("nam_rate_hz", p.namRateHz);
  p.crashRateHz = r.numberAt("crash_rate_hz", p.crashRateHz);
  p.stormRateHz = r.numberAt("storm_rate_hz", p.stormRateHz);
  p.windowMinSec = r.numberAt("window_min_sec", p.windowMinSec);
  p.windowMaxSec = r.numberAt("window_max_sec", p.windowMaxSec);
  p.downWeight = r.numberAt("down_weight", p.downWeight);
  p.degradeMinFactor = r.numberAt("degrade_min_factor", p.degradeMinFactor);
  p.degradeMaxFactor = r.numberAt("degrade_max_factor", p.degradeMaxFactor);
  p.crashRestartMinSec =
      r.numberAt("crash_restart_min_sec", p.crashRestartMinSec);
  p.crashRestartMaxSec =
      r.numberAt("crash_restart_max_sec", p.crashRestartMaxSec);
  p.stormMinSize = r.int32At("storm_min_size", p.stormMinSize);
  p.stormMaxSize = r.int32At("storm_max_size", p.stormMaxSize);
  p.stormSpanSec = r.numberAt("storm_span_sec", p.stormSpanSec);
  p.dropProbMax = r.numberAt("drop_prob_max", p.dropProbMax);
  p.corruptProbMax = r.numberAt("corrupt_prob_max", p.corruptProbMax);
  targetsFromDesc(r, "endpoint_targets", p.endpointTargets);
  targetsFromDesc(r, "trunk_targets", p.trunkTargets);
  targetsFromDesc(r, "switch_targets", p.switchTargets);
  targetsFromDesc(r, "nam_targets", p.namTargets);
  targetsFromDesc(r, "crash_targets", p.crashTargets);
  r.finish();
  if (std::string err = p.validate(); !err.empty()) r.fail(err);
  return p;
}

desc::Value toDesc(const ChaosProfile& p) {
  desc::Value v = desc::Value::object();
  v.set("horizon_sec", desc::Value::number(p.horizonSec));
  v.set("endpoint_rate_hz", desc::Value::number(p.endpointRateHz));
  v.set("trunk_rate_hz", desc::Value::number(p.trunkRateHz));
  v.set("switch_rate_hz", desc::Value::number(p.switchRateHz));
  v.set("nam_rate_hz", desc::Value::number(p.namRateHz));
  v.set("crash_rate_hz", desc::Value::number(p.crashRateHz));
  v.set("storm_rate_hz", desc::Value::number(p.stormRateHz));
  v.set("window_min_sec", desc::Value::number(p.windowMinSec));
  v.set("window_max_sec", desc::Value::number(p.windowMaxSec));
  v.set("down_weight", desc::Value::number(p.downWeight));
  v.set("degrade_min_factor", desc::Value::number(p.degradeMinFactor));
  v.set("degrade_max_factor", desc::Value::number(p.degradeMaxFactor));
  v.set("crash_restart_min_sec", desc::Value::number(p.crashRestartMinSec));
  v.set("crash_restart_max_sec", desc::Value::number(p.crashRestartMaxSec));
  v.set("storm_min_size", desc::Value::integer(p.stormMinSize));
  v.set("storm_max_size", desc::Value::integer(p.stormMaxSize));
  v.set("storm_span_sec", desc::Value::number(p.stormSpanSec));
  v.set("drop_prob_max", desc::Value::number(p.dropProbMax));
  v.set("corrupt_prob_max", desc::Value::number(p.corruptProbMax));
  targetsToDesc(v, "endpoint_targets", p.endpointTargets);
  targetsToDesc(v, "trunk_targets", p.trunkTargets);
  targetsToDesc(v, "switch_targets", p.switchTargets);
  targetsToDesc(v, "nam_targets", p.namTargets);
  targetsToDesc(v, "crash_targets", p.crashTargets);
  return v;
}

}  // namespace cbsim::chaos
