#include "campaign/desc.hpp"

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "campaign/runner.hpp"
#include "extoll/desc.hpp"
#include "fault/desc.hpp"
#include "hw/desc.hpp"
#include "pmpi/desc.hpp"
#include "scr/desc.hpp"
#include "xpic/desc.hpp"

namespace cbsim::campaign {

template <class Io>
void fields(Io& io, CheckpointScheme& s) {
  io.string("label", s.label, desc::required);
  io.object("scr", s.scr, scr::scrConfigFromDesc, desc::required);
}

namespace {

CheckpointScheme checkpointSchemeFromDesc(desc::Reader& r) {
  CheckpointScheme s;
  fields(r, s);
  r.finish();
  if (s.label.empty()) r.fail("label must be non-empty");
  return s;
}

/// Fails with `key`'s path when `r` holds a halo longer than pmpi's
/// message limit.
void haloBytesAt(desc::Reader& r, std::size_t& haloBytes) {
  if (!r.has("halo_bytes")) return;
  const desc::Reader hb = r.child("halo_bytes");
  const std::uint64_t n = hb.asUint();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    hb.fail(std::to_string(n) + " bytes exceeds pmpi's 4 GiB message "
            "limit (at most 4294967295)");
  }
  haloBytes = static_cast<std::size_t>(n);
}

}  // namespace

desc::Value toDesc(const CheckpointScheme& s) { return desc::write(s); }

template <class Io>
void fields(Io& io, Fig8Params& p) {
  io.object("xpic", p.xpic, xpic::xpicConfigFromDesc);
  io.object("machine", p.machine, hw::machineConfigFromDesc);
  io.int32s("node_counts", p.nodeCounts);
}

Fig8Params fig8ParamsFromDesc(desc::Reader& r) {
  Fig8Params p;
  fields(r, p);
  r.finish();
  // Only a described list can be bad, so these fail at its path.
  if (p.nodeCounts.empty()) {
    r.child("node_counts").fail("node_counts must be non-empty");
  }
  for (const int n : p.nodeCounts) {
    if (n < 1) r.child("node_counts").fail("node counts must be >= 1");
  }
  return p;
}

desc::Value toDesc(const Fig8Params& p) { return desc::write(p); }

template <class Io>
void fields(Io& io, ResilienceParams& p) {
  io.numbers("mtbf_sec", p.mtbfSec);
  io.objects("schemes", p.schemes, checkpointSchemeFromDesc);
  io.int32("ranks", p.ranks);
  io.int32("steps", p.steps);
  io.seconds("step_sec", p.stepSec);
  io.unsignedInt("state_bytes", p.stateBytes);
  io.int32("max_attempts", p.maxAttempts);
  io.object("protocol", p.protocol, pmpi::protocolParamsFromDesc);
  io.optional("machine", p.machine, hw::machineConfigFromDesc);
  // The reader binds fault_plan last (see resilienceParamsFromDesc).
  if constexpr (std::is_same_v<Io, desc::Writer>) {
    io.optional("fault_plan", p.faultPlan, nullptr);
  }
  io.number("drop_prob", p.dropProb);
  io.number("corrupt_prob", p.corruptProb);
  io.number("degrade_factor", p.degradeFactor);
  io.seconds("degrade_from_sec", p.degradeFromSec);
  io.seconds("degrade_until_sec", p.degradeUntilSec);
  io.seconds("flap_from_sec", p.flapFromSec);
  io.seconds("flap_until_sec", p.flapUntilSec);
  io.int32("spare_nodes", p.spareNodes);
  io.seconds("repair_sec", p.repairSec);
  io.seconds("first_failure_at_sec", p.firstFailureAtSec);
  io.seconds("restart_delay_sec", p.restartDelaySec);
}

ResilienceParams resilienceParamsFromDesc(desc::Reader& r) {
  ResilienceParams p;
  std::optional<desc::Reader> plan = r.tryChild("fault_plan");
  fields(r, p);
  r.finish();
  if (p.mtbfSec.empty()) r.child("mtbf_sec").fail("mtbf_sec must be non-empty");
  for (const double s : p.mtbfSec) {
    if (s <= 0) r.child("mtbf_sec").fail("MTBF values must be > 0 seconds");
  }
  if (p.schemes.empty()) r.fail("schemes must be non-empty");
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

desc::Value toDesc(const ResilienceParams& p) { return desc::write(p); }

template <class Io>
void fields(Io& io, HaloParams& p) {
  io.object("machine", p.machine, hw::machineConfigFromDesc);
  io.object("fabric", p.fabric, extoll::fabricOptionsFromDesc);
  io.int32s("rank_counts", p.rankCounts);
  io.int32("steps", p.steps);
  if constexpr (std::is_same_v<Io, desc::Reader>) {
    haloBytesAt(io, p.haloBytes);
  } else {
    io.unsignedInt("halo_bytes", p.haloBytes);
  }
  io.seconds("compute_sec", p.computeSec);
  io.int32("allreduce_every", p.allreduceEvery);
  io.int32("fiber_stack_kb", p.fiberStackKb);
  io.object("protocol", p.protocol, pmpi::protocolParamsFromDesc);
}

HaloParams haloParamsFromDesc(desc::Reader& r) {
  HaloParams p;
  fields(r, p);
  r.finish();
  if (p.rankCounts.empty()) {
    r.child("rank_counts").fail("rank_counts must be non-empty");
  }
  for (const int n : p.rankCounts) {
    if (n < 1) r.child("rank_counts").fail("rank counts must be >= 1");
  }
  if (p.steps < 1) r.fail("steps must be >= 1");
  if (p.haloBytes < 1) r.fail("halo_bytes must be >= 1");
  if (p.computeSec < 0) r.fail("compute_sec must be >= 0");
  if (p.allreduceEvery < 0) r.fail("allreduce_every must be >= 0");
  if (p.fiberStackKb < 0) r.fail("fiber_stack_kb must be >= 0");
  return p;
}

desc::Value toDesc(const HaloParams& p) { return desc::write(p); }

template <class Io>
void fields(Io& io, PingPongParams& p) {
  io.object("machine", p.machine, hw::machineConfigFromDesc);
  io.object("protocol", p.protocol, pmpi::protocolParamsFromDesc);
}

PingPongParams pingpongParamsFromDesc(desc::Reader& r) {
  PingPongParams p;
  fields(r, p);
  r.finish();
  return p;
}

desc::Value toDesc(const PingPongParams& p) { return desc::write(p); }

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
  spec.name = spec.kind;
  spec.description = kind->description;
  r.string("name", spec.name);
  r.string("description", spec.description);
  r.unsignedInt("base_seed", spec.baseSeed);
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
