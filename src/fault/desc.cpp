#include "fault/desc.hpp"

#include <algorithm>
#include <vector>

#include "hw/machine.hpp"

namespace cbsim::fault {

namespace {

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
  const int idx = ref.asInt32();
  if (idx < 0) ref.fail("index must be non-negative");
  return idx;
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
  r.int32("storm", f.storm);
  if (f.storm < -1) r.fail("storm must be a non-negative id");
  r.finish();
  p.add(f);
}

desc::Value faultToDesc(const Fault& f, const char* targetKey) {
  desc::Writer w;
  w.int32(targetKey, f.target);
  if (f.isWindow()) {
    w.time("from_sec", f.from, desc::kPsPerSec);
    w.time("until_sec", f.until, desc::kPsPerSec);
    w.number("bw_factor", f.bwFactor);
  } else {
    w.time("at_sec", f.from, desc::kPsPerSec);
    w.time("restart_after_sec", f.restartAfter, desc::kPsPerSec);
  }
  if (f.storm >= 0) w.int32("storm", f.storm);
  return w.take();
}

}  // namespace

FaultPlan faultPlanFromDesc(desc::Reader& r, const hw::MachineConfig* machine) {
  FaultPlan p;
  r.number("drop_prob", p.dropProb);
  r.number("corrupt_prob", p.corruptProb);
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
      double from = 0;
      double until = 0;
      w.seconds("from_sec", from, desc::required);
      w.seconds("until_sec", until, desc::required);
      w.number("bw_factor", f.bwFactor);
      if (until <= from) w.fail("until_sec must be greater than from_sec");
      if (f.bwFactor < 0.0 || f.bwFactor > 1.0) {
        w.fail("bw_factor must be in [0, 1]");
      }
      f.from = sim::SimTime::seconds(from);
      f.until = sim::SimTime::seconds(until);
      finishFault(w, f, p);
    });
  }
  if (r.has("node_crashes")) {
    r.eachIn("node_crashes", [&](desc::Reader& c) {
      Fault f{.kind = Kind::Crash,
              .target = targetAt(c, "node", machine, resolveNode)};
      double at = 0;
      double restart = 0;
      c.seconds("at_sec", at, desc::required);
      c.seconds("restart_after_sec", restart, desc::required);
      if (at < 0.0) c.fail("at_sec must be >= 0");
      if (restart <= 0.0) c.fail("restart_after_sec must be positive");
      f.from = sim::SimTime::seconds(at);
      f.restartAfter = sim::SimTime::seconds(restart);
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
  desc::Writer v;
  v.number("drop_prob", p.dropProb);
  v.number("corrupt_prob", p.corruptProb);
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
  return v.take();
}

}  // namespace cbsim::fault
