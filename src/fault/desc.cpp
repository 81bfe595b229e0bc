#include "fault/desc.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "hw/machine.hpp"

namespace cbsim::fault {

namespace {

sim::SimTime timeFromSec(double s) { return sim::SimTime::seconds(s); }

double secFromTime(sim::SimTime t) {
  return static_cast<double>(t.picos()) / 1e12;
}

/// Reads a target reference that is an index, or — when `machine` is
/// present — a name resolved through `resolve`.  Without a machine context
/// a name is an error: there is nothing to resolve it against.
int targetAt(desc::Reader& w, std::string_view key,
             const hw::MachineConfig* machine,
             int (*resolve)(const hw::MachineConfig&, const std::string&)) {
  auto ref = w.child(key);
  if (ref.value().isString()) {
    const std::string& name = ref.asString();
    if (resolve == nullptr) ref.fail("must be an index, not a name");
    if (machine == nullptr) {
      ref.fail("named reference \"" + name +
               "\" requires a machine context; use an index here");
    }
    const int idx = resolve(*machine, name);
    if (idx < 0) {
      ref.fail("\"" + name + "\" does not name anything in machine '" +
               machine->name + "'");
    }
    return idx;
  }
  const auto idx = ref.asInt();
  if (idx < 0) ref.fail("index must be non-negative");
  return static_cast<int>(idx);
}

int resolveNode(const hw::MachineConfig& m, const std::string& name) {
  return hw::findNodeByName(m, name);
}

int resolveSwitch(const hw::MachineConfig& m, const std::string& name) {
  return hw::findSwitchByName(m, name);
}

/// One window kind's description keys.  The endpoint and trunk arrays are
/// always emitted (the pre-extension canonical form); the newer kinds
/// appear only when used, keeping every committed dump byte-identical.
struct WindowKeys {
  Kind kind;
  const char* array;
  const char* target;
  int (*resolve)(const hw::MachineConfig&, const std::string&);
  bool alwaysEmit;
};

constexpr WindowKeys kWindows[] = {
    {Kind::Endpoint, "endpoint_windows", "endpoint", resolveNode, true},
    {Kind::Trunk, "trunk_windows", "trunk", nullptr, true},
    {Kind::Switch, "switch_windows", "switch", resolveSwitch, false},
    {Kind::Nam, "nam_windows", "nam", nullptr, false},
};

/// Reads the optional storm tag and checks out the fault's object.
void finishFault(desc::Reader& r, Fault& f, FaultPlan& p) {
  const auto storm = r.intAt("storm", -1);
  if (storm < -1 || storm > std::numeric_limits<int>::max()) {
    r.fail("storm must be a non-negative id");
  }
  f.storm = static_cast<int>(storm);
  r.finish();
  p.add(f);
}

desc::Value faultToDesc(const Fault& f, const char* targetKey) {
  desc::Value o = desc::Value::object();
  o.set(targetKey, desc::Value::integer(f.target));
  if (f.isWindow()) {
    o.set("from_sec", desc::Value::number(secFromTime(f.from)));
    o.set("until_sec", desc::Value::number(secFromTime(f.until)));
    o.set("bw_factor", desc::Value::number(f.bwFactor));
  } else {
    o.set("at_sec", desc::Value::number(secFromTime(f.from)));
    o.set("restart_after_sec",
          desc::Value::number(secFromTime(f.restartAfter)));
  }
  if (f.storm >= 0) o.set("storm", desc::Value::integer(f.storm));
  return o;
}

}  // namespace

FaultPlan faultPlanFromDesc(desc::Reader& r, const hw::MachineConfig* machine) {
  FaultPlan p;
  p.dropProb = r.numberAt("drop_prob", p.dropProb);
  p.corruptProb = r.numberAt("corrupt_prob", p.corruptProb);
  if (p.dropProb < 0.0 || p.dropProb > 1.0) {
    r.fail("drop_prob must be in [0, 1]");
  }
  if (p.corruptProb < 0.0 || p.corruptProb > 1.0) {
    r.fail("corrupt_prob must be in [0, 1]");
  }
  for (const WindowKeys& k : kWindows) {
    if (!r.has(k.array)) continue;
    r.eachIn(k.array, [&](desc::Reader& w) {
      Fault f{.kind = k.kind,
              .target = targetAt(w, k.target, machine, k.resolve)};
      const double from = w.numberAt("from_sec");
      const double until = w.numberAt("until_sec");
      f.bwFactor = w.numberAt("bw_factor", 0.0);
      if (until <= from) w.fail("until_sec must be greater than from_sec");
      if (f.bwFactor < 0.0 || f.bwFactor > 1.0) {
        w.fail("bw_factor must be in [0, 1]");
      }
      f.from = timeFromSec(from);
      f.until = timeFromSec(until);
      finishFault(w, f, p);
    });
  }
  if (r.has("node_crashes")) {
    r.eachIn("node_crashes", [&](desc::Reader& c) {
      Fault f{.kind = Kind::Crash,
              .target = targetAt(c, "node", machine, resolveNode)};
      f.from = timeFromSec(c.numberAt("at_sec"));
      const double restart = c.numberAt("restart_after_sec");
      if (restart <= 0.0) c.fail("restart_after_sec must be positive");
      f.restartAfter = timeFromSec(restart);
      finishFault(c, f, p);
    });
  }
  r.finish();
  if (machine != nullptr) {
    if (std::string err = p.validateFor(*machine); !err.empty()) r.fail(err);
  }
  return p;
}

desc::Value toDesc(const FaultPlan& p) {
  desc::Value v = desc::Value::object();
  v.set("drop_prob", desc::Value::number(p.dropProb));
  v.set("corrupt_prob", desc::Value::number(p.corruptProb));
  // One array per kind, ordered by target and, within a target, by
  // insertion (the order its window factors multiply in).
  for (const WindowKeys& k : kWindows) {
    std::vector<Fault> windows;
    for (const Fault& f : p.faults()) {
      if (f.kind == k.kind) windows.push_back(f);
    }
    if (windows.empty() && !k.alwaysEmit) continue;
    std::stable_sort(windows.begin(), windows.end(),
                     [](const Fault& a, const Fault& b) {
                       return a.target < b.target;
                     });
    desc::Value arr = desc::Value::array();
    for (const Fault& f : windows) arr.push(faultToDesc(f, k.target));
    v.set(k.array, std::move(arr));
  }
  const std::vector<Fault> crashes = p.crashes();
  if (!crashes.empty()) {
    desc::Value arr = desc::Value::array();
    for (const Fault& f : crashes) arr.push(faultToDesc(f, "node"));
    v.set("node_crashes", std::move(arr));
  }
  return v;
}

}  // namespace cbsim::fault
