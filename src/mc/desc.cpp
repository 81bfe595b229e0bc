#include "mc/desc.hpp"

#include "desc/json.hpp"
#include "fault/desc.hpp"
#include "hw/desc.hpp"
#include "pmpi/desc.hpp"
#include "scr/desc.hpp"

namespace cbsim::mc {

template <class Io>
void fields(Io& io, McBudget& b) {
  io.int64("max_schedules", b.maxSchedules);
  io.int32("max_depth", b.maxDepth);
  io.boolean("sleep_sets", b.sleepSets);
}

McBudget budgetFromDesc(desc::Reader& r) {
  McBudget b;
  fields(r, b);
  r.finish();
  if (b.maxSchedules < 1) r.fail("max_schedules must be >= 1");
  if (b.maxDepth < 1) r.fail("max_depth must be >= 1");
  return b;
}

desc::Value toDesc(const McBudget& b) { return desc::write(b); }

template <class Io>
void fields(Io& io, McScenario& s) {
  io.string("name", s.name);
  io.string("family", s.family);
  io.unsignedInt("seed", s.seed);
  io.seconds("drain_sec", s.drainSec);
  io.object("protocol", s.protocol, pmpi::protocolParamsFromDesc);
  // Machine before fault: a machine context lets fault references use
  // names ("cn03", "extoll-fabric") and be validated for existence.
  io.optional("machine", s.machine, hw::machineConfigFromDesc);
  io.optional("fault", s.fault, [&s](desc::Reader& f) {
    return fault::faultPlanFromDesc(f, s.machine ? &*s.machine : nullptr);
  });
  io.object("budget", s.budget, budgetFromDesc);
  // Only the family's own keys: the other family's fail in finish() as
  // unknown.
  if (s.family == "message-race") {
    io.int32("senders", s.senders);
    io.int32("messages", s.messages);
    io.micros("recv_warmup_us", s.recvWarmupUs);
    io.micros("recv_work_us", s.recvWorkUs);
  } else {
    io.int32("ranks", s.ranks);
    io.int32("steps", s.steps);
    io.seconds("step_sec", s.stepSec);
    io.unsignedInt("state_bytes", s.stateBytes);
    io.int32("spare_nodes", s.spareNodes);
    io.seconds("repair_sec", s.repairSec);
    io.seconds("fail_at_sec", s.failAtSec);
    io.seconds("fault_quantum_sec", s.faultQuantumSec);
    io.int32("max_attempts", s.maxAttempts);
    io.seconds("restart_delay_sec", s.restartDelaySec);
    io.object("scr", s.scr, scr::scrConfigFromDesc);
  }
}

McScenario scenarioFromDesc(desc::Reader& r) {
  McScenario s;
  // The family picks the keys, and names an unnamed scenario.
  s.family = r.stringAt("family");
  if (s.family != "message-race" && s.family != "checkpoint-restart") {
    r.fail("family must be \"message-race\" or \"checkpoint-restart\"");
  }
  s.name = s.family;
  fields(r, s);
  r.finish();
  if (s.drainSec <= 0) r.fail("drain_sec must be positive");
  if (s.recvWarmupUs < 0 || s.recvWorkUs < 0) {
    r.fail("recv_warmup_us/recv_work_us must be >= 0");
  }
  return s;
}

McScenario scenarioFromDoc(const desc::Value& doc, const std::string& origin) {
  desc::Reader root(doc, origin);
  desc::Reader ex = root.child("explore");
  McScenario s = scenarioFromDesc(ex);
  root.finish();
  return s;
}

desc::Value toDesc(const McScenario& s) { return desc::write(s); }

std::string dumpScenario(const McScenario& s) {
  desc::Value doc = desc::Value::object();
  doc.set("explore", toDesc(s));
  return desc::dump(doc);
}

}  // namespace cbsim::mc
