#include "campaign/desc.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "campaign/runner.hpp"
#include "extoll/desc.hpp"
#include "fault/desc.hpp"
#include "hw/desc.hpp"
#include "pmpi/desc.hpp"
#include "scr/desc.hpp"
#include "xpic/desc.hpp"

namespace cbsim::campaign {

namespace {

CheckpointScheme checkpointSchemeFromDesc(desc::Reader& r) {
  CheckpointScheme s;
  s.label = r.stringAt("label");
  desc::Reader scr = r.child("scr");
  s.scr = scr::scrConfigFromDesc(scr);
  r.finish();
  if (s.label.empty()) r.fail("label must be non-empty");
  return s;
}

desc::Value toDesc(const CheckpointScheme& s) {
  desc::Value v = desc::Value::object();
  v.set("label", desc::Value::string(s.label));
  v.set("scr", scr::toDesc(s.scr));
  return v;
}

}  // namespace

Fig8Params fig8ParamsFromDesc(desc::Reader& r) {
  Fig8Params p;
  if (auto x = r.tryChild("xpic")) p.xpic = xpic::xpicConfigFromDesc(*x);
  if (auto m = r.tryChild("machine")) p.machine = hw::machineConfigFromDesc(*m);
  if (auto nc = r.tryChild("node_counts")) {
    p.nodeCounts.clear();
    for (std::size_t i = 0; i < nc->size(); ++i) {
      p.nodeCounts.push_back(nc->item(i).asInt32());
    }
    if (p.nodeCounts.empty()) nc->fail("node_counts must be non-empty");
    for (const int n : p.nodeCounts) {
      if (n < 1) nc->fail("node counts must be >= 1");
    }
  }
  r.finish();
  return p;
}

desc::Value toDesc(const Fig8Params& p) {
  desc::Value v = desc::Value::object();
  v.set("xpic", xpic::toDesc(p.xpic));
  v.set("machine", hw::toDesc(p.machine));
  desc::Value counts = desc::Value::array();
  for (const int n : p.nodeCounts) counts.push(desc::Value::integer(n));
  v.set("node_counts", std::move(counts));
  return v;
}

ResilienceParams resilienceParamsFromDesc(desc::Reader& r) {
  ResilienceParams p;
  if (auto m = r.tryChild("mtbf_sec")) {
    p.mtbfSec.clear();
    for (std::size_t i = 0; i < m->size(); ++i) {
      p.mtbfSec.push_back(m->item(i).asNumber());
    }
    if (p.mtbfSec.empty()) m->fail("mtbf_sec must be non-empty");
    for (const double s : p.mtbfSec) {
      if (s <= 0) m->fail("MTBF values must be > 0 seconds");
    }
  }
  if (r.has("schemes")) {
    p.schemes.clear();
    r.eachIn("schemes", [&](desc::Reader& el) {
      p.schemes.push_back(checkpointSchemeFromDesc(el));
    });
    if (p.schemes.empty()) r.fail("schemes must be non-empty");
  }
  p.ranks = r.int32At("ranks", p.ranks);
  p.steps = r.int32At("steps", p.steps);
  p.stepSec = r.numberAt("step_sec", p.stepSec);
  p.stateBytes = static_cast<std::size_t>(
      r.uintAt("state_bytes", static_cast<std::uint64_t>(p.stateBytes)));
  p.maxAttempts = r.int32At("max_attempts", p.maxAttempts);
  if (auto pr = r.tryChild("protocol")) {
    p.protocol = pmpi::protocolParamsFromDesc(*pr);
  }
  if (auto m = r.tryChild("machine")) p.machine = hw::machineConfigFromDesc(*m);
  std::optional<desc::Reader> plan = r.tryChild("fault_plan");
  p.dropProb = r.numberAt("drop_prob", p.dropProb);
  p.corruptProb = r.numberAt("corrupt_prob", p.corruptProb);
  p.degradeFactor = r.numberAt("degrade_factor", p.degradeFactor);
  p.degradeFromSec = r.numberAt("degrade_from_sec", p.degradeFromSec);
  p.degradeUntilSec = r.numberAt("degrade_until_sec", p.degradeUntilSec);
  p.flapFromSec = r.numberAt("flap_from_sec", p.flapFromSec);
  p.flapUntilSec = r.numberAt("flap_until_sec", p.flapUntilSec);
  p.spareNodes = r.int32At("spare_nodes", p.spareNodes);
  p.repairSec = r.numberAt("repair_sec", p.repairSec);
  p.firstFailureAtSec = r.numberAt("first_failure_at_sec", p.firstFailureAtSec);
  p.restartDelaySec = r.numberAt("restart_delay_sec", p.restartDelaySec);
  r.finish();
  if (p.ranks < 1) r.fail("ranks must be >= 1");
  if (p.steps < 1) r.fail("steps must be >= 1");
  if (p.stepSec <= 0) r.fail("step_sec must be > 0");
  if (p.stateBytes < 1) r.fail("state_bytes must be >= 1");
  if (p.maxAttempts < 1) r.fail("max_attempts must be >= 1");
  if (p.spareNodes < 0) r.fail("spare_nodes must be >= 0");
  if (p.restartDelaySec < 0) r.fail("restart_delay_sec must be >= 0");
  if (p.dropProb < 0 || p.dropProb > 1) r.fail("drop_prob must be in [0, 1]");
  if (p.corruptProb < 0 || p.corruptProb > 1) {
    r.fail("corrupt_prob must be in [0, 1]");
  }
  if (p.degradeFactor < 0 || p.degradeFactor > 1) {
    r.fail("degrade_factor must be in [0, 1]");
  }
  // Read last, once the sizes the default machine is built from are
  // checked: the plan may name its targets ("cn01") and is validated
  // against the machine the grid runs on.  Its dump keeps indices.
  if (plan) {
    const hw::MachineConfig machine = resilienceMachine(p);
    p.faultPlan = fault::faultPlanFromDesc(*plan, &machine);
  }
  return p;
}

desc::Value toDesc(const ResilienceParams& p) {
  desc::Value v = desc::Value::object();
  desc::Value mtbf = desc::Value::array();
  for (const double s : p.mtbfSec) mtbf.push(desc::Value::number(s));
  v.set("mtbf_sec", std::move(mtbf));
  desc::Value schemes = desc::Value::array();
  for (const CheckpointScheme& s : p.schemes) schemes.push(toDesc(s));
  v.set("schemes", std::move(schemes));
  v.set("ranks", desc::Value::integer(p.ranks));
  v.set("steps", desc::Value::integer(p.steps));
  v.set("step_sec", desc::Value::number(p.stepSec));
  v.set("state_bytes",
        desc::Value::unsignedInt(static_cast<std::uint64_t>(p.stateBytes)));
  v.set("max_attempts", desc::Value::integer(p.maxAttempts));
  v.set("protocol", pmpi::toDesc(p.protocol));
  if (p.machine) v.set("machine", hw::toDesc(*p.machine));
  if (p.faultPlan) v.set("fault_plan", fault::toDesc(*p.faultPlan));
  v.set("drop_prob", desc::Value::number(p.dropProb));
  v.set("corrupt_prob", desc::Value::number(p.corruptProb));
  v.set("degrade_factor", desc::Value::number(p.degradeFactor));
  v.set("degrade_from_sec", desc::Value::number(p.degradeFromSec));
  v.set("degrade_until_sec", desc::Value::number(p.degradeUntilSec));
  v.set("flap_from_sec", desc::Value::number(p.flapFromSec));
  v.set("flap_until_sec", desc::Value::number(p.flapUntilSec));
  v.set("spare_nodes", desc::Value::integer(p.spareNodes));
  v.set("repair_sec", desc::Value::number(p.repairSec));
  v.set("first_failure_at_sec", desc::Value::number(p.firstFailureAtSec));
  v.set("restart_delay_sec", desc::Value::number(p.restartDelaySec));
  return v;
}

HaloParams haloParamsFromDesc(desc::Reader& r) {
  HaloParams p;
  if (auto m = r.tryChild("machine")) p.machine = hw::machineConfigFromDesc(*m);
  if (auto f = r.tryChild("fabric")) {
    p.fabric = extoll::fabricOptionsFromDesc(*f);
  }
  if (auto rc = r.tryChild("rank_counts")) {
    p.rankCounts.clear();
    for (std::size_t i = 0; i < rc->size(); ++i) {
      p.rankCounts.push_back(rc->item(i).asInt32());
    }
    if (p.rankCounts.empty()) rc->fail("rank_counts must be non-empty");
    for (const int n : p.rankCounts) {
      if (n < 1) rc->fail("rank counts must be >= 1");
    }
  }
  p.steps = r.int32At("steps", p.steps);
  p.haloBytes = static_cast<std::size_t>(
      r.uintAt("halo_bytes", static_cast<std::uint64_t>(p.haloBytes)));
  p.computeSec = r.numberAt("compute_sec", p.computeSec);
  p.allreduceEvery = r.int32At("allreduce_every", p.allreduceEvery);
  p.fiberStackKb = r.int32At("fiber_stack_kb", p.fiberStackKb);
  if (auto pr = r.tryChild("protocol")) {
    p.protocol = pmpi::protocolParamsFromDesc(*pr);
  }
  r.finish();
  if (p.steps < 1) r.fail("steps must be >= 1");
  if (p.haloBytes < 1) r.fail("halo_bytes must be >= 1");
  if (p.computeSec < 0) r.fail("compute_sec must be >= 0");
  if (p.allreduceEvery < 0) r.fail("allreduce_every must be >= 0");
  if (p.fiberStackKb < 0) r.fail("fiber_stack_kb must be >= 0");
  return p;
}

desc::Value toDesc(const HaloParams& p) {
  desc::Value v = desc::Value::object();
  v.set("machine", hw::toDesc(p.machine));
  v.set("fabric", extoll::toDesc(p.fabric));
  desc::Value counts = desc::Value::array();
  for (const int n : p.rankCounts) counts.push(desc::Value::integer(n));
  v.set("rank_counts", std::move(counts));
  v.set("steps", desc::Value::integer(p.steps));
  v.set("halo_bytes",
        desc::Value::unsignedInt(static_cast<std::uint64_t>(p.haloBytes)));
  v.set("compute_sec", desc::Value::number(p.computeSec));
  v.set("allreduce_every", desc::Value::integer(p.allreduceEvery));
  v.set("fiber_stack_kb", desc::Value::integer(p.fiberStackKb));
  v.set("protocol", pmpi::toDesc(p.protocol));
  return v;
}

PingPongParams pingpongParamsFromDesc(desc::Reader& r) {
  PingPongParams p;
  if (auto m = r.tryChild("machine")) p.machine = hw::machineConfigFromDesc(*m);
  if (auto pr = r.tryChild("protocol")) {
    p.protocol = pmpi::protocolParamsFromDesc(*pr);
  }
  r.finish();
  return p;
}

desc::Value toDesc(const PingPongParams& p) {
  desc::Value v = desc::Value::object();
  v.set("machine", hw::toDesc(p.machine));
  v.set("protocol", pmpi::toDesc(p.protocol));
  return v;
}

namespace {

/// One campaign kind: its name (also the key of its params object), its
/// default description, its params binding and its grid builder.
struct Kind {
  const char* name;
  const char* description;
  void (*read)(desc::Reader&, CampaignSpec&);
  desc::Value (*write)(const CampaignSpec&);
  Campaign (*build)(const CampaignSpec&);
};

constexpr Kind kKinds[] = {
    {"fig8",
     "xPic strong scaling (paper Fig. 8): execution mode x nodes per "
     "solver, one isolated world per cell",
     [](desc::Reader& r, CampaignSpec& s) { s.fig8 = fig8ParamsFromDesc(r); },
     [](const CampaignSpec& s) { return toDesc(s.fig8); },
     [](const CampaignSpec& s) { return fig8Campaign(s.fig8); }},
    {"resilience",
     "DEEP-ER-style resiliency matrix: node MTBF x SCR checkpoint-level "
     "scheme under exponential failure injection",
     [](desc::Reader& r, CampaignSpec& s) {
       s.resilience = resilienceParamsFromDesc(r);
     },
     [](const CampaignSpec& s) { return toDesc(s.resilience); },
     [](const CampaignSpec& s) { return resilienceCampaign(s.resilience); }},
    {"halo",
     "2D halo-exchange stencil swept over rank counts on a generated "
     "fabric; routing mode and congestion model are parameters",
     [](desc::Reader& r, CampaignSpec& s) { s.halo = haloParamsFromDesc(r); },
     [](const CampaignSpec& s) { return toDesc(s.halo); },
     [](const CampaignSpec& s) { return haloCampaign(s.halo); }},
    {"pingpong",
     "MPI ping-pong (paper Fig. 3): node pair x message size, one 2-rank "
     "world per cell",
     [](desc::Reader& r, CampaignSpec& s) {
       s.pingpong = pingpongParamsFromDesc(r);
     },
     [](const CampaignSpec& s) { return toDesc(s.pingpong); },
     [](const CampaignSpec& s) { return pingpongCampaign(s.pingpong); }},
};

const Kind* findKind(const std::string& name) {
  for (const Kind& k : kKinds) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

const Kind& kindOf(const CampaignSpec& spec) {
  const Kind* k = findKind(spec.kind);
  if (k == nullptr) {
    throw std::invalid_argument("unknown campaign kind \"" + spec.kind + "\"");
  }
  return *k;
}

}  // namespace

CampaignSpec campaignSpecFromDesc(desc::Reader& r) {
  CampaignSpec spec;
  spec.kind = r.stringAt("campaign");
  const Kind* kind = findKind(spec.kind);
  if (kind == nullptr) {
    std::string known;
    for (const Kind& k : kKinds) {
      known += std::string(known.empty() ? "" : ", ") + k.name;
    }
    r.fail("unknown campaign kind \"" + spec.kind + "\"; known: " + known);
  }
  spec.name = r.stringAt("name", spec.kind);
  spec.description = r.stringAt("description", kind->description);
  spec.baseSeed = r.uintAt("base_seed", spec.baseSeed);
  if (auto params = r.tryChild(spec.kind)) kind->read(*params, spec);
  r.finish();
  if (spec.name.empty()) r.fail("name must be non-empty");
  return spec;
}

desc::Value toDesc(const CampaignSpec& spec) {
  desc::Value v = desc::Value::object();
  v.set("campaign", desc::Value::string(spec.kind));
  v.set("name", desc::Value::string(spec.name));
  v.set("description", desc::Value::string(spec.description));
  v.set("base_seed", desc::Value::unsignedInt(spec.baseSeed));
  v.set(spec.kind, kindOf(spec).write(spec));
  return v;
}

CampaignSpec campaignSpecFromDescText(const std::string& text,
                                      const std::string& origin) {
  const desc::Value v = desc::parse(text, origin);
  desc::Reader r(v, origin);
  return campaignSpecFromDesc(r);
}

Campaign buildCampaign(const CampaignSpec& spec) {
  Campaign c = kindOf(spec).build(spec);
  c.name = spec.name;
  c.description = spec.description;
  c.baseSeed = spec.baseSeed;
  checkScenarioNames(c);
  return c;
}

}  // namespace cbsim::campaign
