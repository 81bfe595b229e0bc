#include "hw/desc.hpp"

#include <cmath>
#include <cstdint>
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

// ---- SimTime <-> description numbers ---------------------------------------

sim::SimTime timeAt(desc::Reader& r, std::string_view key, double picosPerUnit,
                    sim::SimTime def) {
  if (!r.has(key)) return def;
  const desc::Reader v = r.child(key);
  const double ps = v.asNumber() * picosPerUnit;
  // 2^63 ps is the first count int64_t cannot hold.
  if (!(ps >= 0.0 && ps < 0x1p63)) {
    v.fail("time " + desc::formatNumber(v.asNumber()) +
           " out of range (must be >= 0 and below 2^63 picoseconds)");
  }
  return sim::SimTime::ps(std::llround(ps));
}

namespace {

/// Optional key `key` of `r` counting units of `picosPerUnit` picoseconds,
/// kept as a double; fails with the key's path once the picosecond count
/// is not below 2^63.
double unitsAt(desc::Reader& r, std::string_view key, double picosPerUnit,
               double def) {
  if (!r.has(key)) return def;
  const desc::Reader v = r.child(key);
  const double n = v.asNumber();
  if (!(n * picosPerUnit < 0x1p63)) {
    v.fail("time " + desc::formatNumber(n) +
           " out of range (must be below 2^63 picoseconds)");
  }
  return n;
}

}  // namespace

double secondsAt(desc::Reader& r, std::string_view key, double def) {
  return unitsAt(r, key, 1e12, def);
}

double microsAt(desc::Reader& r, std::string_view key, double def) {
  return unitsAt(r, key, kPsPerUs, def);
}

double nsFromTime(sim::SimTime t) {
  return static_cast<double>(t.picos()) / 1000.0;
}

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

// ---- Readers ---------------------------------------------------------------

CpuSpec cpuSpecFromDesc(desc::Reader& r) {
  if (r.value().isString()) return cpuPreset(r.asString());
  CpuSpec s;
  if (r.has("preset")) s = cpuPreset(r.stringAt("preset"));
  s.model = r.stringAt("model", s.model);
  s.microarchitecture = r.stringAt("microarchitecture", s.microarchitecture);
  s.sockets = r.int32At("sockets", s.sockets);
  s.cores = r.int32At("cores", s.cores);
  s.threadsPerCore = r.int32At("threads_per_core", s.threadsPerCore);
  s.freqGHz = r.numberAt("freq_ghz", s.freqGHz);
  s.flopsPerCyclePerCore =
      r.numberAt("flops_per_cycle_per_core", s.flopsPerCyclePerCore);
  s.scalarIpc = r.numberAt("scalar_ipc", s.scalarIpc);
  s.memBwGBs = r.numberAt("mem_bw_gbs", s.memBwGBs);
  s.fastMemBwGBs = r.numberAt("fast_mem_bw_gbs", s.fastMemBwGBs);
  s.fastMemGiB = r.numberAt("fast_mem_gib", s.fastMemGiB);
  s.memGiB = r.numberAt("mem_gib", s.memGiB);
  s.gatherScatterEff = r.numberAt("gather_scatter_eff", s.gatherScatterEff);
  s.forkJoinBaseCycles = r.numberAt("fork_join_base_cycles", s.forkJoinBaseCycles);
  s.forkJoinPerThreadCycles =
      r.numberAt("fork_join_per_thread_cycles", s.forkJoinPerThreadCycles);
  r.finish();
  return s;
}

NetClassSpec netClassSpecFromDesc(desc::Reader& r) {
  if (r.value().isString()) return netPreset(r.asString());
  NetClassSpec s;
  if (r.has("preset")) s = netPreset(r.stringAt("preset"));
  s.name = r.stringAt("name", s.name);
  s.linkBandwidthGBs = r.numberAt("link_bandwidth_gbs", s.linkBandwidthGBs);
  s.protocolEfficiency = r.numberAt("protocol_efficiency", s.protocolEfficiency);
  s.nicLatency = timeAt(r, "nic_latency_ns", kPsPerNs, s.nicLatency);
  s.switchLatency = timeAt(r, "switch_latency_ns", kPsPerNs, s.switchLatency);
  s.wireLatency = timeAt(r, "wire_latency_ns", kPsPerNs, s.wireLatency);
  r.finish();
  return s;
}

NvmeSpec nvmeSpecFromDesc(desc::Reader& r) {
  NvmeSpec s;
  s.model = r.stringAt("model", s.model);
  s.capacityGB = r.numberAt("capacity_gb", s.capacityGB);
  s.readBwGBs = r.numberAt("read_bw_gbs", s.readBwGBs);
  s.writeBwGBs = r.numberAt("write_bw_gbs", s.writeBwGBs);
  s.latency = timeAt(r, "latency_ns", kPsPerNs, s.latency);
  r.finish();
  return s;
}

DiskSpec diskSpecFromDesc(desc::Reader& r) {
  DiskSpec s;
  s.model = r.stringAt("model", s.model);
  s.capacityGB = r.numberAt("capacity_gb", s.capacityGB);
  s.readBwGBs = r.numberAt("read_bw_gbs", s.readBwGBs);
  s.writeBwGBs = r.numberAt("write_bw_gbs", s.writeBwGBs);
  s.latency = timeAt(r, "latency_ns", kPsPerNs, s.latency);
  r.finish();
  return s;
}

NamSpec namSpecFromDesc(desc::Reader& r) {
  NamSpec s;
  s.model = r.stringAt("model", s.model);
  s.capacityGB = r.numberAt("capacity_gb", s.capacityGB);
  s.bandwidthGBs = r.numberAt("bandwidth_gbs", s.bandwidthGBs);
  s.accessLatency = timeAt(r, "access_latency_ns", kPsPerNs, s.accessLatency);
  r.finish();
  return s;
}

SwitchSpec switchSpecFromDesc(desc::Reader& r) {
  SwitchSpec s;
  s.name = r.stringAt("name", s.name);
  if (r.has("net")) {
    desc::Reader net = r.child("net");
    s.net = netClassSpecFromDesc(net);
  }
  r.finish();
  return s;
}

TrunkSpec trunkSpecFromDesc(desc::Reader& r) {
  TrunkSpec s;
  s.switchA = r.int32At("switch_a");
  s.switchB = r.int32At("switch_b");
  s.bandwidthGBs = r.numberAt("bandwidth_gbs", s.bandwidthGBs);
  s.latency = timeAt(r, "latency_ns", kPsPerNs, s.latency);
  r.finish();
  return s;
}

NodeGroupSpec nodeGroupSpecFromDesc(desc::Reader& r) {
  NodeGroupSpec g;
  {
    desc::Reader kind = r.child("kind");
    g.kind = nodeKindFromKey(kind);
  }
  g.count = r.int32At("count");
  g.namePrefix = r.stringAt("name_prefix");
  {
    desc::Reader cpu = r.child("cpu");
    g.cpu = cpuSpecFromDesc(cpu);
  }
  if (auto nvme = r.tryChild("nvme")) g.nvme = nvmeSpecFromDesc(*nvme);
  if (auto disk = r.tryChild("disk")) g.disk = diskSpecFromDesc(*disk);
  g.switchId = r.int32At("switch_id", g.switchId);
  g.mpiSwOverhead = timeAt(r, "mpi_sw_overhead_ns", kPsPerNs, g.mpiSwOverhead);
  g.activeWatts = r.numberAt("active_watts", g.activeWatts);
  r.finish();
  return g;
}

TopologySpec topologySpecFromDesc(desc::Reader& r) {
  TopologySpec t;
  {
    const std::string kind = r.stringAt("kind");
    if (kind == "fat-tree") {
      t.kind = TopologySpec::Kind::FatTree;
    } else if (kind == "dragonfly") {
      t.kind = TopologySpec::Kind::Dragonfly;
    } else {
      r.fail("unknown topology kind \"" + kind +
             "\" (expected fat-tree or dragonfly)");
    }
  }
  if (t.kind == TopologySpec::Kind::FatTree) {
    if (r.has("radix")) {
      const int k = r.int32At("radix");
      if (k < 2 || k % 2 != 0) {
        r.fail("topology.radix must be an even switch port count >= 2 (got " +
               std::to_string(k) + "); a k-port fat-tree splits ports k/2 "
               "down, k/2 up");
      }
      t.pods = k;
      t.spines = k / 2;
      t.nodesPerPod = k / 2;
    }
    t.pods = r.int32At("pods", t.pods);
    t.spines = r.int32At("spines", t.spines);
    t.nodesPerPod = r.int32At("nodes_per_pod", t.nodesPerPod);
  } else {
    t.routersPerGroup = r.int32At("routers_per_group", t.routersPerGroup);
    t.nodesPerRouter = r.int32At("nodes_per_router", t.nodesPerRouter);
    t.globalPerRouter = r.int32At("global_per_router", t.globalPerRouter);
  }
  if (r.has("node_kind")) {
    desc::Reader kind = r.child("node_kind");
    t.nodeKind = nodeKindFromKey(kind);
  }
  if (auto cpu = r.tryChild("cpu")) t.cpu = cpuSpecFromDesc(*cpu);
  if (auto net = r.tryChild("net")) t.net = netClassSpecFromDesc(*net);
  t.trunkBandwidthGBs = r.numberAt("trunk_bandwidth_gbs", t.trunkBandwidthGBs);
  t.trunkLatency = timeAt(r, "trunk_latency_ns", kPsPerNs, t.trunkLatency);
  t.mpiSwOverhead = timeAt(r, "mpi_sw_overhead_ns", kPsPerNs, t.mpiSwOverhead);
  t.activeWatts = r.numberAt("active_watts", t.activeWatts);
  r.finish();
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
    cfg.name = r.stringAt("name", cfg.name);
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
    const std::string name = r.stringAt("name", "");
    TopologySpec spec;
    {
      desc::Reader topo = r.child("topology");
      spec = topologySpecFromDesc(topo);
    }
    r.finish();
    MachineConfig cfg = spec.materialize(name);
    cfg.validate();
    return cfg;
  }
  MachineConfig cfg;
  cfg.name = r.stringAt("name", cfg.name);
  cfg.bridgeBetweenSwitches =
      r.boolAt("bridge_between_switches", cfg.bridgeBetweenSwitches);
  r.eachIn("switches", [&](desc::Reader& el) {
    cfg.switches.push_back(switchSpecFromDesc(el));
  });
  r.eachIn("groups", [&](desc::Reader& el) {
    cfg.groups.push_back(nodeGroupSpecFromDesc(el));
  });
  if (r.has("trunks")) {
    r.eachIn("trunks", [&](desc::Reader& el) {
      cfg.trunks.push_back(trunkSpecFromDesc(el));
    });
  }
  if (r.has("nams")) {
    r.eachIn("nams", [&](desc::Reader& el) {
      NamAttachment na;
      na.switchId = el.int32At("switch_id", na.switchId);
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

desc::Value toDesc(const CpuSpec& s) {
  desc::Value v = desc::Value::object();
  v.set("model", desc::Value::string(s.model));
  v.set("microarchitecture", desc::Value::string(s.microarchitecture));
  v.set("sockets", desc::Value::integer(s.sockets));
  v.set("cores", desc::Value::integer(s.cores));
  v.set("threads_per_core", desc::Value::integer(s.threadsPerCore));
  v.set("freq_ghz", desc::Value::number(s.freqGHz));
  v.set("flops_per_cycle_per_core", desc::Value::number(s.flopsPerCyclePerCore));
  v.set("scalar_ipc", desc::Value::number(s.scalarIpc));
  v.set("mem_bw_gbs", desc::Value::number(s.memBwGBs));
  v.set("fast_mem_bw_gbs", desc::Value::number(s.fastMemBwGBs));
  v.set("fast_mem_gib", desc::Value::number(s.fastMemGiB));
  v.set("mem_gib", desc::Value::number(s.memGiB));
  v.set("gather_scatter_eff", desc::Value::number(s.gatherScatterEff));
  v.set("fork_join_base_cycles", desc::Value::number(s.forkJoinBaseCycles));
  v.set("fork_join_per_thread_cycles",
        desc::Value::number(s.forkJoinPerThreadCycles));
  return v;
}

desc::Value toDesc(const NetClassSpec& s) {
  desc::Value v = desc::Value::object();
  v.set("name", desc::Value::string(s.name));
  v.set("link_bandwidth_gbs", desc::Value::number(s.linkBandwidthGBs));
  v.set("protocol_efficiency", desc::Value::number(s.protocolEfficiency));
  v.set("nic_latency_ns", desc::Value::number(nsFromTime(s.nicLatency)));
  v.set("switch_latency_ns", desc::Value::number(nsFromTime(s.switchLatency)));
  v.set("wire_latency_ns", desc::Value::number(nsFromTime(s.wireLatency)));
  return v;
}

desc::Value toDesc(const NvmeSpec& s) {
  desc::Value v = desc::Value::object();
  v.set("model", desc::Value::string(s.model));
  v.set("capacity_gb", desc::Value::number(s.capacityGB));
  v.set("read_bw_gbs", desc::Value::number(s.readBwGBs));
  v.set("write_bw_gbs", desc::Value::number(s.writeBwGBs));
  v.set("latency_ns", desc::Value::number(nsFromTime(s.latency)));
  return v;
}

desc::Value toDesc(const DiskSpec& s) {
  desc::Value v = desc::Value::object();
  v.set("model", desc::Value::string(s.model));
  v.set("capacity_gb", desc::Value::number(s.capacityGB));
  v.set("read_bw_gbs", desc::Value::number(s.readBwGBs));
  v.set("write_bw_gbs", desc::Value::number(s.writeBwGBs));
  v.set("latency_ns", desc::Value::number(nsFromTime(s.latency)));
  return v;
}

desc::Value toDesc(const NamSpec& s) {
  desc::Value v = desc::Value::object();
  v.set("model", desc::Value::string(s.model));
  v.set("capacity_gb", desc::Value::number(s.capacityGB));
  v.set("bandwidth_gbs", desc::Value::number(s.bandwidthGBs));
  v.set("access_latency_ns", desc::Value::number(nsFromTime(s.accessLatency)));
  return v;
}

desc::Value toDesc(const SwitchSpec& s) {
  desc::Value v = desc::Value::object();
  v.set("name", desc::Value::string(s.name));
  v.set("net", toDesc(s.net));
  return v;
}

desc::Value toDesc(const TrunkSpec& s) {
  desc::Value v = desc::Value::object();
  v.set("switch_a", desc::Value::integer(s.switchA));
  v.set("switch_b", desc::Value::integer(s.switchB));
  v.set("bandwidth_gbs", desc::Value::number(s.bandwidthGBs));
  v.set("latency_ns", desc::Value::number(nsFromTime(s.latency)));
  return v;
}

desc::Value toDesc(const NodeGroupSpec& g) {
  desc::Value v = desc::Value::object();
  v.set("kind", desc::Value::string(nodeKindKey(g.kind)));
  v.set("count", desc::Value::integer(g.count));
  v.set("name_prefix", desc::Value::string(g.namePrefix));
  v.set("cpu", toDesc(g.cpu));
  if (g.nvme) v.set("nvme", toDesc(*g.nvme));
  if (g.disk) v.set("disk", toDesc(*g.disk));
  v.set("switch_id", desc::Value::integer(g.switchId));
  v.set("mpi_sw_overhead_ns", desc::Value::number(nsFromTime(g.mpiSwOverhead)));
  v.set("active_watts", desc::Value::number(g.activeWatts));
  return v;
}

desc::Value toDesc(const TopologySpec& t) {
  desc::Value v = desc::Value::object();
  const bool ft = t.kind == TopologySpec::Kind::FatTree;
  v.set("kind", desc::Value::string(ft ? "fat-tree" : "dragonfly"));
  if (ft) {
    v.set("pods", desc::Value::integer(t.pods));
    v.set("spines", desc::Value::integer(t.spines));
    v.set("nodes_per_pod", desc::Value::integer(t.nodesPerPod));
  } else {
    v.set("routers_per_group", desc::Value::integer(t.routersPerGroup));
    v.set("nodes_per_router", desc::Value::integer(t.nodesPerRouter));
    v.set("global_per_router", desc::Value::integer(t.globalPerRouter));
  }
  v.set("node_kind", desc::Value::string(nodeKindKey(t.nodeKind)));
  v.set("cpu", toDesc(t.cpu));
  v.set("net", toDesc(t.net));
  v.set("trunk_bandwidth_gbs", desc::Value::number(t.trunkBandwidthGBs));
  v.set("trunk_latency_ns", desc::Value::number(nsFromTime(t.trunkLatency)));
  v.set("mpi_sw_overhead_ns", desc::Value::number(nsFromTime(t.mpiSwOverhead)));
  v.set("active_watts", desc::Value::number(t.activeWatts));
  return v;
}

desc::Value toDesc(const MachineConfig& c) {
  desc::Value v = desc::Value::object();
  v.set("name", desc::Value::string(c.name));
  if (c.topology) {
    // Compact canonical form: the topology object regenerates the
    // switch/group/trunk lists exactly (materialize() is deterministic),
    // so a 16k-node machine dumps as a dozen lines and still round-trips
    // byte-identically.
    v.set("topology", toDesc(*c.topology));
    return v;
  }
  v.set("bridge_between_switches",
        desc::Value::boolean(c.bridgeBetweenSwitches));
  desc::Value switches = desc::Value::array();
  for (const SwitchSpec& s : c.switches) switches.push(toDesc(s));
  v.set("switches", std::move(switches));
  desc::Value groups = desc::Value::array();
  for (const NodeGroupSpec& g : c.groups) groups.push(toDesc(g));
  v.set("groups", std::move(groups));
  desc::Value trunks = desc::Value::array();
  for (const TrunkSpec& t : c.trunks) trunks.push(toDesc(t));
  v.set("trunks", std::move(trunks));
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
