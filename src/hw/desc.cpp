#include "hw/desc.hpp"

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace cbsim::hw {

namespace {

// ---- Embedded preset descriptions ------------------------------------------
// These strings ARE the presets: the C++ accessors (MachineConfig::deepEr()
// and friends) parse them through the same bindings that handle user
// description files, so there is exactly one construction path from text
// to a MachineConfig and presets cannot drift from the schema.

constexpr const char* kCpuXeonHaswell = R"json({
  "model": "Intel Xeon E5-2680 v3",
  "microarchitecture": "Haswell",
  "sockets": 2,
  "cores": 24,
  "threads_per_core": 2,
  "freq_ghz": 2.5,
  "flops_per_cycle_per_core": 16,
  "scalar_ipc": 2.2,
  "mem_bw_gbs": 120,
  "mem_gib": 128,
  "gather_scatter_eff": 0.6
})json";

constexpr const char* kCpuXeonPhiKnl = R"json({
  "model": "Intel Xeon Phi 7210",
  "microarchitecture": "Knights Landing (KNL)",
  "sockets": 1,
  "cores": 64,
  "threads_per_core": 4,
  "freq_ghz": 1.3,
  "flops_per_cycle_per_core": 32,
  "scalar_ipc": 0.7,
  "mem_bw_gbs": 80,
  "fast_mem_bw_gbs": 420,
  "fast_mem_gib": 16,
  "mem_gib": 96,
  "gather_scatter_eff": 0.15
})json";

constexpr const char* kCpuXeonSandyBridge = R"json({
  "model": "Intel Xeon E5-2680",
  "microarchitecture": "Sandy Bridge",
  "sockets": 2,
  "cores": 16,
  "threads_per_core": 2,
  "freq_ghz": 2.7,
  "flops_per_cycle_per_core": 8,
  "scalar_ipc": 2,
  "mem_bw_gbs": 80,
  "mem_gib": 32,
  "gather_scatter_eff": 0.5
})json";

constexpr const char* kCpuXeonPhiKnc = R"json({
  "model": "Intel Xeon Phi 7120 (KNC)",
  "microarchitecture": "Knights Corner",
  "sockets": 1,
  "cores": 61,
  "threads_per_core": 4,
  "freq_ghz": 1.238,
  "flops_per_cycle_per_core": 16,
  "scalar_ipc": 0.5,
  "mem_bw_gbs": 170,
  "mem_gib": 16,
  "gather_scatter_eff": 0.08
})json";

constexpr const char* kCpuStorageServer = R"json({
  "model": "Intel Xeon E5-2630 v3",
  "microarchitecture": "Haswell",
  "sockets": 2,
  "cores": 16,
  "threads_per_core": 2,
  "freq_ghz": 2.4,
  "flops_per_cycle_per_core": 16,
  "scalar_ipc": 2.2,
  "mem_bw_gbs": 100,
  "mem_gib": 64
})json";

constexpr const char* kNetExtollTourmalet = R"json({
  "name": "EXTOLL Tourmalet A3",
  "link_bandwidth_gbs": 12.5,
  "protocol_efficiency": 0.8
})json";

constexpr const char* kNetInfinibandQdr = R"json({
  "name": "InfiniBand QDR",
  "link_bandwidth_gbs": 4,
  "protocol_efficiency": 0.85,
  "switch_latency_ns": 150
})json";

// Paper Table I platform (second-generation DEEP-ER prototype).
constexpr const char* kMachineDeepEr = R"json({
  "name": "DEEP-ER prototype (gen 2)",
  "switches": [
    { "name": "extoll-fabric", "net": "extoll-tourmalet" }
  ],
  "groups": [
    {
      "kind": "cluster", "count": 16, "name_prefix": "cn",
      "cpu": "xeon-haswell", "nvme": {},
      "mpi_sw_overhead_ns": 350, "active_watts": 385
    },
    {
      "kind": "booster", "count": 8, "name_prefix": "bn",
      "cpu": "xeon-phi-knl", "nvme": {},
      "mpi_sw_overhead_ns": 750, "active_watts": 275
    },
    {
      "kind": "storage", "count": 3, "name_prefix": "st",
      "cpu": "storage-server", "disk": {},
      "mpi_sw_overhead_ns": 350
    }
  ],
  "nams": [
    { "switch_id": 0 },
    { "switch_id": 0 }
  ]
})json";

// First-generation DEEP prototype: IB cluster + EXTOLL booster, bridged.
constexpr const char* kMachineDeepGen1 = R"json({
  "name": "DEEP prototype (gen 1)",
  "bridge_between_switches": true,
  "switches": [
    { "name": "cluster-infiniband", "net": "infiniband-qdr" },
    { "name": "booster-extoll", "net": "extoll-tourmalet" }
  ],
  "groups": [
    {
      "kind": "cluster", "count": 128, "name_prefix": "cn",
      "cpu": "xeon-sandy-bridge", "mpi_sw_overhead_ns": 400
    },
    {
      "kind": "booster", "count": 384, "name_prefix": "bn",
      "cpu": "xeon-phi-knc", "switch_id": 1, "mpi_sw_overhead_ns": 1400
    },
    {
      "kind": "bridge", "count": 2, "name_prefix": "bi",
      "cpu": "xeon-sandy-bridge", "mpi_sw_overhead_ns": 400
    }
  ]
})json";

// DEEP-EST outlook: DEEP-ER fabric plus a large-memory analytics module.
constexpr const char* kMachineDeepEst = R"json({
  "name": "DEEP-EST modular system",
  "switches": [
    { "name": "extoll-fabric", "net": "extoll-tourmalet" }
  ],
  "groups": [
    {
      "kind": "cluster", "count": 16, "name_prefix": "cn",
      "cpu": "xeon-haswell", "nvme": {},
      "mpi_sw_overhead_ns": 350, "active_watts": 385
    },
    {
      "kind": "booster", "count": 16, "name_prefix": "bn",
      "cpu": "xeon-phi-knl", "nvme": {},
      "mpi_sw_overhead_ns": 750, "active_watts": 275
    },
    {
      "kind": "storage", "count": 3, "name_prefix": "st",
      "cpu": "storage-server", "disk": {},
      "mpi_sw_overhead_ns": 350
    },
    {
      "kind": "analytics", "count": 4, "name_prefix": "dn",
      "cpu": {
        "preset": "xeon-haswell",
        "model": "Intel Xeon (large-memory data analytics)",
        "mem_bw_gbs": 160,
        "mem_gib": 512
      },
      "nvme": {},
      "mpi_sw_overhead_ns": 350
    }
  ],
  "nams": [
    { "switch_id": 0 },
    { "switch_id": 0 }
  ]
})json";

// Generated-topology presets: tiny instances of the two scale-out
// families, mostly for tests and examples — real sweeps size them through
// the `topology` object (see examples/desc/fat-tree-16k.json).
constexpr const char* kMachineFatTreeTiny = R"json({
  "name": "fat-tree-tiny",
  "topology": {
    "kind": "fat-tree",
    "pods": 4,
    "spines": 2,
    "nodes_per_pod": 4,
    "cpu": "xeon-haswell"
  }
})json";

constexpr const char* kMachineDragonflyTiny = R"json({
  "name": "dragonfly-tiny",
  "topology": {
    "kind": "dragonfly",
    "routers_per_group": 2,
    "nodes_per_router": 2,
    "global_per_router": 1,
    "cpu": "xeon-haswell"
  }
})json";

struct PresetEntry {
  const char* name;
  const char* text;
};

constexpr PresetEntry kCpuPresets[] = {
    {"xeon-haswell", kCpuXeonHaswell},
    {"xeon-phi-knl", kCpuXeonPhiKnl},
    {"xeon-sandy-bridge", kCpuXeonSandyBridge},
    {"xeon-phi-knc", kCpuXeonPhiKnc},
    {"storage-server", kCpuStorageServer},
};

constexpr PresetEntry kNetPresets[] = {
    {"extoll-tourmalet", kNetExtollTourmalet},
    {"infiniband-qdr", kNetInfinibandQdr},
};

constexpr PresetEntry kMachinePresets[] = {
    {"deep-er", kMachineDeepEr},
    {"deep-gen1", kMachineDeepGen1},
    {"deep-est", kMachineDeepEst},
    {"fat-tree-tiny", kMachineFatTreeTiny},
    {"dragonfly-tiny", kMachineDragonflyTiny},
};

template <std::size_t N>
std::vector<std::string> presetNames(const PresetEntry (&table)[N]) {
  std::vector<std::string> out;
  for (const PresetEntry& e : table) out.emplace_back(e.name);
  return out;
}

/// Index of preset `name` in `table`; throws naming the known presets.
template <std::size_t N>
std::size_t presetIndex(const PresetEntry (&table)[N], const std::string& name,
                        const char* what) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == table[i].name) return i;
  }
  std::string known;
  for (const PresetEntry& e : table) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw desc::SchemaError(std::string("desc: unknown ") + what + " preset \"" +
                          name + "\" (known: " + known + ")");
}

/// Every preset text of `table`, parsed and bound through `read` (the
/// readers below, the same ones description files go through), in table
/// order.  The accessors keep the result in a function-local constant, so
/// each text is parsed once per process and callers get copies.
template <typename T, std::size_t N>
std::vector<T> parsePresets(const PresetEntry (&table)[N], const char* what,
                            T (*read)(desc::Reader&)) {
  std::vector<T> out;
  out.reserve(N);
  for (const PresetEntry& e : table) {
    const std::string origin = std::string("builtin:") + what + "/" + e.name;
    const desc::Value v = desc::parse(e.text, origin);
    desc::Reader r(v, origin);
    out.push_back(read(r));
  }
  return out;
}

}  // namespace

// ---- NodeKind <-> description key ------------------------------------------

const char* nodeKindKey(NodeKind k) {
  switch (k) {
    case NodeKind::Cluster: return "cluster";
    case NodeKind::Booster: return "booster";
    case NodeKind::Storage: return "storage";
    case NodeKind::Bridge: return "bridge";
    case NodeKind::Analytics: return "analytics";
  }
  return "?";
}

NodeKind nodeKindFromKey(desc::Reader& r) {
  const std::string& s = r.asString();
  if (s == "cluster") return NodeKind::Cluster;
  if (s == "booster") return NodeKind::Booster;
  if (s == "storage") return NodeKind::Storage;
  if (s == "bridge") return NodeKind::Bridge;
  if (s == "analytics") return NodeKind::Analytics;
  r.fail("unknown node kind \"" + s +
         "\" (expected cluster, booster, storage, bridge or analytics)");
}

// The enum writers are static rather than in the unnamed namespace:
// desc::Writer finds a field's toDesc by argument-dependent lookup.
static desc::Value toDesc(NodeKind k) {
  return desc::Value::string(nodeKindKey(k));
}

namespace {

TopologySpec::Kind topologyKindFromDesc(desc::Reader& r) {
  const std::string& kind = r.asString();
  if (kind == "fat-tree") return TopologySpec::Kind::FatTree;
  if (kind == "dragonfly") return TopologySpec::Kind::Dragonfly;
  r.fail("unknown topology kind \"" + kind +
         "\" (expected fat-tree or dragonfly)");
}

}  // namespace

static desc::Value toDesc(TopologySpec::Kind k) {
  return desc::Value::string(k == TopologySpec::Kind::FatTree ? "fat-tree"
                                                              : "dragonfly");
}

// ---- Field lists -----------------------------------------------------------

template <class Io>
void fields(Io& io, CpuSpec& s) {
  io.string("model", s.model);
  io.string("microarchitecture", s.microarchitecture);
  io.int32("sockets", s.sockets);
  io.int32("cores", s.cores);
  io.int32("threads_per_core", s.threadsPerCore);
  io.number("freq_ghz", s.freqGHz);
  io.number("flops_per_cycle_per_core", s.flopsPerCyclePerCore);
  io.number("scalar_ipc", s.scalarIpc);
  io.number("mem_bw_gbs", s.memBwGBs);
  io.number("fast_mem_bw_gbs", s.fastMemBwGBs);
  io.number("fast_mem_gib", s.fastMemGiB);
  io.number("mem_gib", s.memGiB);
  io.number("gather_scatter_eff", s.gatherScatterEff);
  io.number("fork_join_base_cycles", s.forkJoinBaseCycles);
  io.number("fork_join_per_thread_cycles", s.forkJoinPerThreadCycles);
}

template <class Io>
void fields(Io& io, NetClassSpec& s) {
  io.string("name", s.name);
  io.number("link_bandwidth_gbs", s.linkBandwidthGBs);
  io.number("protocol_efficiency", s.protocolEfficiency);
  io.time("nic_latency_ns", s.nicLatency, desc::kPsPerNs);
  io.time("switch_latency_ns", s.switchLatency, desc::kPsPerNs);
  io.time("wire_latency_ns", s.wireLatency, desc::kPsPerNs);
}

/// NvmeSpec and DiskSpec share their keys.
template <class Io, class Storage>
void storageFields(Io& io, Storage& s) {
  io.string("model", s.model);
  io.number("capacity_gb", s.capacityGB);
  io.number("read_bw_gbs", s.readBwGBs);
  io.number("write_bw_gbs", s.writeBwGBs);
  io.time("latency_ns", s.latency, desc::kPsPerNs);
}

template <class Io>
void fields(Io& io, NvmeSpec& s) { storageFields(io, s); }

template <class Io>
void fields(Io& io, DiskSpec& s) { storageFields(io, s); }

template <class Io>
void fields(Io& io, NamSpec& s) {
  io.string("model", s.model);
  io.number("capacity_gb", s.capacityGB);
  io.number("bandwidth_gbs", s.bandwidthGBs);
  io.time("access_latency_ns", s.accessLatency, desc::kPsPerNs);
}

template <class Io>
void fields(Io& io, SwitchSpec& s) {
  io.string("name", s.name);
  io.object("net", s.net, netClassSpecFromDesc);
}

template <class Io>
void fields(Io& io, TrunkSpec& s) {
  io.int32("switch_a", s.switchA, desc::required);
  io.int32("switch_b", s.switchB, desc::required);
  io.number("bandwidth_gbs", s.bandwidthGBs);
  io.time("latency_ns", s.latency, desc::kPsPerNs);
}

template <class Io>
void fields(Io& io, NodeGroupSpec& g) {
  io.object("kind", g.kind, nodeKindFromKey, desc::required);
  io.int32("count", g.count, desc::required);
  io.string("name_prefix", g.namePrefix, desc::required);
  io.object("cpu", g.cpu, cpuSpecFromDesc, desc::required);
  io.optional("nvme", g.nvme, nvmeSpecFromDesc);
  io.optional("disk", g.disk, diskSpecFromDesc);
  io.int32("switch_id", g.switchId);
  io.time("mpi_sw_overhead_ns", g.mpiSwOverhead, desc::kPsPerNs);
  io.number("active_watts", g.activeWatts);
}

template <class Io>
void fields(Io& io, TopologySpec& t) {
  io.object("kind", t.kind, topologyKindFromDesc, desc::required);
  if (t.kind == TopologySpec::Kind::FatTree) {
    if constexpr (std::is_same_v<Io, desc::Reader>) {
      // Read-only shorthand: k-port switches set all three sizes.
      if (io.has("radix")) {
        const int k = io.int32At("radix");
        if (k < 2 || k % 2 != 0) {
          io.fail("topology.radix must be an even switch port count >= 2 "
                  "(got " + std::to_string(k) + "); a k-port fat-tree "
                  "splits ports k/2 down, k/2 up");
        }
        t.pods = k;
        t.spines = k / 2;
        t.nodesPerPod = k / 2;
      }
    }
    io.int32("pods", t.pods);
    io.int32("spines", t.spines);
    io.int32("nodes_per_pod", t.nodesPerPod);
  } else {
    io.int32("routers_per_group", t.routersPerGroup);
    io.int32("nodes_per_router", t.nodesPerRouter);
    io.int32("global_per_router", t.globalPerRouter);
  }
  io.object("node_kind", t.nodeKind, nodeKindFromKey);
  io.object("cpu", t.cpu, cpuSpecFromDesc);
  io.object("net", t.net, netClassSpecFromDesc);
  io.number("trunk_bandwidth_gbs", t.trunkBandwidthGBs);
  io.time("trunk_latency_ns", t.trunkLatency, desc::kPsPerNs);
  io.time("mpi_sw_overhead_ns", t.mpiSwOverhead, desc::kPsPerNs);
  io.number("active_watts", t.activeWatts);
}

/// The explicit machine form, NAM attachments aside (each merges its
/// switch_id into the NAM's own keys).
template <class Io>
void fields(Io& io, MachineConfig& c) {
  io.string("name", c.name);
  io.boolean("bridge_between_switches", c.bridgeBetweenSwitches);
  io.objects("switches", c.switches, switchSpecFromDesc, desc::required);
  io.objects("groups", c.groups, nodeGroupSpecFromDesc, desc::required);
  io.objects("trunks", c.trunks, trunkSpecFromDesc);
}

// ---- Readers ---------------------------------------------------------------

namespace {

/// A spec with no preset form: defaults, its fields, no unknown keys.
template <class S>
S bind(desc::Reader& r) {
  S s;
  fields(r, s);
  r.finish();
  return s;
}

/// A spec that may be a preset name, or an object whose "preset" key
/// seeds the fields it then overrides.
template <class S>
S bindWithPreset(desc::Reader& r, S (*preset)(const std::string&)) {
  if (r.value().isString()) return preset(r.asString());
  S s;
  if (r.has("preset")) s = preset(r.stringAt("preset"));
  fields(r, s);
  r.finish();
  return s;
}

}  // namespace

CpuSpec cpuSpecFromDesc(desc::Reader& r) {
  return bindWithPreset(r, cpuPreset);
}

NetClassSpec netClassSpecFromDesc(desc::Reader& r) {
  return bindWithPreset(r, netPreset);
}

NvmeSpec nvmeSpecFromDesc(desc::Reader& r) { return bind<NvmeSpec>(r); }
DiskSpec diskSpecFromDesc(desc::Reader& r) { return bind<DiskSpec>(r); }
NamSpec namSpecFromDesc(desc::Reader& r) { return bind<NamSpec>(r); }
SwitchSpec switchSpecFromDesc(desc::Reader& r) { return bind<SwitchSpec>(r); }
TrunkSpec trunkSpecFromDesc(desc::Reader& r) { return bind<TrunkSpec>(r); }

NodeGroupSpec nodeGroupSpecFromDesc(desc::Reader& r) {
  return bind<NodeGroupSpec>(r);
}

TopologySpec topologySpecFromDesc(desc::Reader& r) {
  TopologySpec t = bind<TopologySpec>(r);
  try {
    t.validate();
  } catch (const std::invalid_argument& e) {
    r.fail(e.what());
  }
  return t;
}

void setGroupCount(MachineConfig& cfg, NodeKind kind, int count) {
  for (std::size_t i = 0; i < cfg.groups.size(); ++i) {
    if (cfg.groups[i].kind != kind) continue;
    if (count <= 0) {
      cfg.groups.erase(cfg.groups.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      cfg.groups[i].count = count;
    }
    return;
  }
  throw desc::SchemaError(std::string("desc: machine \"") + cfg.name +
                          "\" has no " + nodeKindKey(kind) +
                          " group to resize");
}

MachineConfig machineConfigFromDesc(desc::Reader& r) {
  if (r.value().isString()) return machinePreset(r.asString());
  if (r.has("preset")) {
    MachineConfig cfg = machinePreset(r.stringAt("preset"));
    r.string("name", cfg.name);
    constexpr std::pair<const char*, NodeKind> kCountKeys[] = {
        {"cluster_nodes", NodeKind::Cluster},
        {"booster_nodes", NodeKind::Booster},
        {"storage_nodes", NodeKind::Storage},
        {"bridge_nodes", NodeKind::Bridge},
        {"analytics_nodes", NodeKind::Analytics},
    };
    for (const auto& [key, kind] : kCountKeys) {
      if (!r.has(key)) continue;
      const int count = r.int32At(key);
      // setGroupCount reads any count <= 0 as "remove the group"; only 0
      // says that on purpose.
      if (count < 0) r.fail(std::string(key) + " must be >= 0");
      setGroupCount(cfg, kind, count);
    }
    r.finish();
    cfg.validate();
    return cfg;
  }
  if (r.has("topology")) {
    // Generated machine: the topology object IS the description; the
    // switch/group/trunk lists are its deterministic expansion and are
    // not accepted alongside it (they could drift).
    std::string name;
    r.string("name", name);
    TopologySpec spec;
    r.object("topology", spec, topologySpecFromDesc, desc::required);
    r.finish();
    MachineConfig cfg = spec.materialize(name);
    cfg.validate();
    return cfg;
  }
  MachineConfig cfg;
  fields(r, cfg);
  if (r.has("nams")) {
    r.eachIn("nams", [&](desc::Reader& el) {
      NamAttachment na;
      el.int32("switch_id", na.switchId);
      // Remaining keys describe the NAM device itself.
      na.spec = namSpecFromDesc(el);
      cfg.nams.push_back(na);
    });
  }
  r.finish();
  cfg.validate();
  return cfg;
}

// ---- Writers ---------------------------------------------------------------

desc::Value toDesc(const CpuSpec& s) { return desc::write(s); }
desc::Value toDesc(const NetClassSpec& s) { return desc::write(s); }
desc::Value toDesc(const NvmeSpec& s) { return desc::write(s); }
desc::Value toDesc(const DiskSpec& s) { return desc::write(s); }
desc::Value toDesc(const NamSpec& s) { return desc::write(s); }
desc::Value toDesc(const SwitchSpec& s) { return desc::write(s); }
desc::Value toDesc(const TrunkSpec& s) { return desc::write(s); }
desc::Value toDesc(const NodeGroupSpec& g) { return desc::write(g); }
desc::Value toDesc(const TopologySpec& t) { return desc::write(t); }

desc::Value toDesc(const MachineConfig& c) {
  if (c.topology) {
    // Compact canonical form: the topology object regenerates the
    // switch/group/trunk lists exactly (materialize() is deterministic),
    // so a 16k-node machine dumps as a dozen lines and still round-trips
    // byte-identically.
    desc::Value v = desc::Value::object();
    v.set("name", desc::Value::string(c.name));
    v.set("topology", toDesc(*c.topology));
    return v;
  }
  desc::Value v = desc::write(c);
  desc::Value nams = desc::Value::array();
  for (const NamAttachment& na : c.nams) {
    desc::Value n = toDesc(na.spec);
    n.set("switch_id", desc::Value::integer(na.switchId));
    nams.push(std::move(n));
  }
  v.set("nams", std::move(nams));
  return v;
}

// ---- Preset registries -----------------------------------------------------

std::vector<std::string> cpuPresetNames() { return presetNames(kCpuPresets); }

CpuSpec cpuPreset(const std::string& name) {
  const std::size_t i = presetIndex(kCpuPresets, name, "cpu");
  static const std::vector<CpuSpec> presets =
      parsePresets(kCpuPresets, "cpu", cpuSpecFromDesc);
  return presets[i];
}

std::vector<std::string> netPresetNames() { return presetNames(kNetPresets); }

NetClassSpec netPreset(const std::string& name) {
  const std::size_t i = presetIndex(kNetPresets, name, "net");
  static const std::vector<NetClassSpec> presets =
      parsePresets(kNetPresets, "net", netClassSpecFromDesc);
  return presets[i];
}

std::vector<std::string> machinePresetNames() {
  return presetNames(kMachinePresets);
}

MachineConfig machinePreset(const std::string& name) {
  const std::size_t i = presetIndex(kMachinePresets, name, "machine");
  static const std::vector<MachineConfig> presets =
      parsePresets(kMachinePresets, "machine", machineConfigFromDesc);
  return presets[i];
}

// ---- MachineConfig presets (embedded text + count overrides) ---------------

MachineConfig MachineConfig::deepEr(int clusterNodes, int boosterNodes) {
  MachineConfig cfg = machinePreset("deep-er");
  setGroupCount(cfg, NodeKind::Cluster, clusterNodes);
  setGroupCount(cfg, NodeKind::Booster, boosterNodes);
  return cfg;
}

MachineConfig MachineConfig::deepGen1(int clusterNodes, int boosterNodes,
                                      int bridgeNodes) {
  MachineConfig cfg = machinePreset("deep-gen1");
  setGroupCount(cfg, NodeKind::Cluster, clusterNodes);
  setGroupCount(cfg, NodeKind::Booster, boosterNodes);
  setGroupCount(cfg, NodeKind::Bridge, bridgeNodes);
  return cfg;
}

MachineConfig MachineConfig::deepEst(int clusterNodes, int boosterNodes,
                                     int analyticsNodes) {
  MachineConfig cfg = machinePreset("deep-est");
  setGroupCount(cfg, NodeKind::Cluster, clusterNodes);
  setGroupCount(cfg, NodeKind::Booster, boosterNodes);
  setGroupCount(cfg, NodeKind::Analytics, analyticsNodes);
  return cfg;
}

CpuSpec MachineConfig::xeonHaswell() { return cpuPreset("xeon-haswell"); }
CpuSpec MachineConfig::xeonPhiKnl() { return cpuPreset("xeon-phi-knl"); }
CpuSpec MachineConfig::xeonSandyBridge() { return cpuPreset("xeon-sandy-bridge"); }
CpuSpec MachineConfig::xeonPhiKnc() { return cpuPreset("xeon-phi-knc"); }

}  // namespace cbsim::hw
