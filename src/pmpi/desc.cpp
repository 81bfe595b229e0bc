#include "pmpi/desc.hpp"

#include <cmath>

namespace cbsim::pmpi {

namespace {

sim::SimTime timeFromUs(double us) {
  return sim::SimTime::ps(std::llround(us * 1e6));
}

double usFromTime(sim::SimTime t) {
  return static_cast<double>(t.picos()) / 1e6;
}

}  // namespace

ProtocolParams protocolParamsFromDesc(desc::Reader& r) {
  ProtocolParams p;
  p.eagerThreshold =
      static_cast<std::size_t>(r.uintAt("eager_threshold", p.eagerThreshold));
  p.headerBytes = r.numberAt("header_bytes", p.headerBytes);
  p.ctrlMsgBytes = r.numberAt("ctrl_msg_bytes", p.ctrlMsgBytes);
  p.spawnBase = timeFromUs(r.numberAt("spawn_base_us", usFromTime(p.spawnBase)));
  p.spawnPerProc =
      timeFromUs(r.numberAt("spawn_per_proc_us", usFromTime(p.spawnPerProc)));
  p.reliable = r.boolAt("reliable", p.reliable);
  p.ackBytes = r.numberAt("ack_bytes", p.ackBytes);
  p.retransmitTimeout = timeFromUs(
      r.numberAt("retransmit_timeout_us", usFromTime(p.retransmitTimeout)));
  p.retransmitBackoff = r.numberAt("retransmit_backoff", p.retransmitBackoff);
  p.retransmitCap =
      timeFromUs(r.numberAt("retransmit_cap_us", usFromTime(p.retransmitCap)));
  p.retransmitBudget = r.int32At("retransmit_budget", p.retransmitBudget);
  r.finish();
  if (p.retransmitBudget < 0) r.fail("retransmit_budget must be >= 0");
  if (p.retransmitBackoff < 1.0) r.fail("retransmit_backoff must be >= 1");
  return p;
}

desc::Value toDesc(const ProtocolParams& p) {
  desc::Value v = desc::Value::object();
  v.set("eager_threshold", desc::Value::unsignedInt(p.eagerThreshold));
  v.set("header_bytes", desc::Value::number(p.headerBytes));
  v.set("ctrl_msg_bytes", desc::Value::number(p.ctrlMsgBytes));
  v.set("spawn_base_us", desc::Value::number(usFromTime(p.spawnBase)));
  v.set("spawn_per_proc_us", desc::Value::number(usFromTime(p.spawnPerProc)));
  v.set("reliable", desc::Value::boolean(p.reliable));
  v.set("ack_bytes", desc::Value::number(p.ackBytes));
  v.set("retransmit_timeout_us",
        desc::Value::number(usFromTime(p.retransmitTimeout)));
  v.set("retransmit_backoff", desc::Value::number(p.retransmitBackoff));
  v.set("retransmit_cap_us", desc::Value::number(usFromTime(p.retransmitCap)));
  v.set("retransmit_budget", desc::Value::integer(p.retransmitBudget));
  return v;
}

}  // namespace cbsim::pmpi
