#include "mc/desc.hpp"

#include "desc/json.hpp"
#include "fault/desc.hpp"
#include "hw/desc.hpp"
#include "pmpi/desc.hpp"
#include "scr/desc.hpp"

namespace cbsim::mc {

McScenario scenarioFromDesc(desc::Reader& r) {
  McScenario s;
  s.family = r.stringAt("family");
  if (s.family != "message-race" && s.family != "checkpoint-restart") {
    r.fail("family must be \"message-race\" or \"checkpoint-restart\"");
  }
  s.name = r.stringAt("name", s.family);
  s.seed = r.uintAt("seed", s.seed);
  s.drainSec = r.numberAt("drain_sec", s.drainSec);
  if (s.drainSec <= 0) r.fail("drain_sec must be positive");
  if (auto p = r.tryChild("protocol")) {
    s.protocol = pmpi::protocolParamsFromDesc(*p);
  }
  // Machine before fault: a machine context lets fault references use
  // names ("cn03", "extoll-fabric") and be validated for existence.
  if (auto m = r.tryChild("machine")) {
    s.machine = hw::machineConfigFromDesc(*m);
  }
  if (auto f = r.tryChild("fault")) {
    s.fault =
        fault::faultPlanFromDesc(*f, s.machine ? &*s.machine : nullptr);
  }
  if (auto b = r.tryChild("budget")) {
    s.budget.maxSchedules = b->intAt("max_schedules", s.budget.maxSchedules);
    s.budget.maxDepth = b->int32At("max_depth", s.budget.maxDepth);
    s.budget.sleepSets = b->boolAt("sleep_sets", s.budget.sleepSets);
    b->finish();
    if (s.budget.maxSchedules < 1) b->fail("max_schedules must be >= 1");
    if (s.budget.maxDepth < 1) b->fail("max_depth must be >= 1");
  }
  // Only the family's own keys are read, as toDesc writes only those: the
  // other family's keys fail in finish() as unknown.
  if (s.family == "message-race") {
    s.senders = r.int32At("senders", s.senders);
    s.messages = r.int32At("messages", s.messages);
    s.recvWarmupUs = r.numberAt("recv_warmup_us", s.recvWarmupUs);
    s.recvWorkUs = r.numberAt("recv_work_us", s.recvWorkUs);
    if (s.recvWarmupUs < 0 || s.recvWorkUs < 0) {
      r.fail("recv_warmup_us/recv_work_us must be >= 0");
    }
  } else {
    s.ranks = r.int32At("ranks", s.ranks);
    s.steps = r.int32At("steps", s.steps);
    s.stepSec = r.numberAt("step_sec", s.stepSec);
    s.stateBytes =
        static_cast<std::size_t>(r.uintAt("state_bytes", s.stateBytes));
    s.spareNodes = r.int32At("spare_nodes", s.spareNodes);
    s.repairSec = r.numberAt("repair_sec", s.repairSec);
    s.failAtSec = r.numberAt("fail_at_sec", s.failAtSec);
    s.faultQuantumSec = r.numberAt("fault_quantum_sec", s.faultQuantumSec);
    s.maxAttempts = r.int32At("max_attempts", s.maxAttempts);
    s.restartDelaySec = r.numberAt("restart_delay_sec", s.restartDelaySec);
    if (auto c = r.tryChild("scr")) s.scr = scr::scrConfigFromDesc(*c);
  }
  r.finish();
  return s;
}

McScenario scenarioFromDoc(const desc::Value& doc, const std::string& origin) {
  desc::Reader root(doc, origin);
  desc::Reader ex = root.child("explore");
  McScenario s = scenarioFromDesc(ex);
  root.finish();
  return s;
}

desc::Value toDesc(const McScenario& s) {
  desc::Value v = desc::Value::object();
  v.set("name", desc::Value::string(s.name));
  v.set("family", desc::Value::string(s.family));
  v.set("seed", desc::Value::unsignedInt(s.seed));
  v.set("drain_sec", desc::Value::number(s.drainSec));
  v.set("protocol", pmpi::toDesc(s.protocol));
  // Emitted only when set, so pre-override dumps stay byte-identical.
  if (s.machine) v.set("machine", hw::toDesc(*s.machine));
  if (s.fault) v.set("fault", fault::toDesc(*s.fault));
  desc::Value b = desc::Value::object();
  b.set("max_schedules", desc::Value::integer(s.budget.maxSchedules));
  b.set("max_depth", desc::Value::integer(s.budget.maxDepth));
  b.set("sleep_sets", desc::Value::boolean(s.budget.sleepSets));
  v.set("budget", std::move(b));
  if (s.family == "message-race") {
    v.set("senders", desc::Value::integer(s.senders));
    v.set("messages", desc::Value::integer(s.messages));
    v.set("recv_warmup_us", desc::Value::number(s.recvWarmupUs));
    v.set("recv_work_us", desc::Value::number(s.recvWorkUs));
  } else {
    v.set("ranks", desc::Value::integer(s.ranks));
    v.set("steps", desc::Value::integer(s.steps));
    v.set("step_sec", desc::Value::number(s.stepSec));
    v.set("state_bytes", desc::Value::unsignedInt(s.stateBytes));
    v.set("spare_nodes", desc::Value::integer(s.spareNodes));
    v.set("repair_sec", desc::Value::number(s.repairSec));
    v.set("fail_at_sec", desc::Value::number(s.failAtSec));
    v.set("fault_quantum_sec", desc::Value::number(s.faultQuantumSec));
    v.set("max_attempts", desc::Value::integer(s.maxAttempts));
    v.set("restart_delay_sec", desc::Value::number(s.restartDelaySec));
    v.set("scr", scr::toDesc(s.scr));
  }
  return v;
}

std::string dumpScenario(const McScenario& s) {
  desc::Value doc = desc::Value::object();
  doc.set("explore", toDesc(s));
  return desc::dump(doc);
}

}  // namespace cbsim::mc
