#include "hw/machine.hpp"

#include <stdexcept>

#include "desc/json.hpp"
#include "hw/topology.hpp"

// The machine presets (deepEr, deepGen1, deepEst, reference CPU specs) live
// in hw/desc.cpp as embedded description strings; this file holds only the
// runtime Machine and the structural validation shared by every
// construction path.

namespace cbsim::hw {

namespace {

std::string twoDigit(const std::string& prefix, int i) {
  return prefix + (i < 10 ? "0" : "") + std::to_string(i);
}

}  // namespace

std::string nodeName(const MachineConfig& config, int id) {
  int base = 0;
  for (const auto& g : config.groups) {
    if (id < base + g.count) return twoDigit(g.namePrefix, id - base);
    base += g.count;
  }
  return "";
}

int findNodeByName(const MachineConfig& config, const std::string& name) {
  int base = 0;
  for (const auto& g : config.groups) {
    for (int i = 0; i < g.count; ++i) {
      if (twoDigit(g.namePrefix, i) == name) return base + i;
    }
    base += g.count;
  }
  return -1;
}

int findSwitchByName(const MachineConfig& config, const std::string& name) {
  for (std::size_t i = 0; i < config.switches.size(); ++i) {
    if (config.switches[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int MachineConfig::totalNodes() const {
  int n = 0;
  for (const auto& g : groups) n += g.count;
  return n;
}

int MachineConfig::countOf(NodeKind kind) const {
  int n = 0;
  for (const auto& g : groups) {
    if (g.kind == kind) n += g.count;
  }
  return n;
}

// ---- Validation -------------------------------------------------------------

namespace {

[[noreturn]] void invalid(const MachineConfig& cfg, const std::string& what) {
  throw std::invalid_argument("hw::MachineConfig \"" + cfg.name + "\": " + what);
}

std::string at(const char* field, std::size_t i) {
  return std::string(field) + "[" + std::to_string(i) + "]";
}

}  // namespace

void MachineConfig::validate() const {
  if (topology) {
    try {
      topology->validate();
    } catch (const std::invalid_argument& e) {
      invalid(*this, e.what());
    }
    if (topology->switchCount() != static_cast<int>(switches.size()) ||
        topology->trunkCount() != static_cast<int>(trunks.size())) {
      invalid(*this,
              "topology does not match the materialized switch/trunk lists "
              "(configs carrying a topology must come from "
              "TopologySpec::materialize())");
    }
  }
  const int nSwitches = static_cast<int>(switches.size());
  for (std::size_t i = 0; i < switches.size(); ++i) {
    const SwitchSpec& sw = switches[i];
    if (!(sw.net.linkBandwidthGBs > 0.0)) {
      invalid(*this, at("switches", i) + " (\"" + sw.name +
                         "\"): net.link_bandwidth_gbs must be positive (got " +
                         desc::formatNumber(sw.net.linkBandwidthGBs) + ")");
    }
    if (!(sw.net.protocolEfficiency > 0.0 && sw.net.protocolEfficiency <= 1.0)) {
      invalid(*this, at("switches", i) + " (\"" + sw.name +
                         "\"): net.protocol_efficiency must be in (0, 1] (got " +
                         desc::formatNumber(sw.net.protocolEfficiency) + ")");
    }
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const NodeGroupSpec& g = groups[i];
    const std::string where = at("groups", i) + " (\"" + g.namePrefix + "\")";
    if (g.count <= 0) {
      invalid(*this, where + ": count must be positive (got " +
                         std::to_string(g.count) + ")");
    }
    if (g.switchId < 0 || g.switchId >= nSwitches) {
      invalid(*this, where + ": switch_id " + std::to_string(g.switchId) +
                         " references a nonexistent switch (machine has " +
                         std::to_string(nSwitches) + ")");
    }
    if (g.cpu.sockets < 1 || g.cpu.cores < 1 || g.cpu.threadsPerCore < 1) {
      invalid(*this, where + ": cpu sockets/cores/threads_per_core must be >= 1");
    }
    if (!(g.cpu.freqGHz > 0.0)) {
      invalid(*this, where + ": cpu.freq_ghz must be positive (got " +
                         desc::formatNumber(g.cpu.freqGHz) + ")");
    }
    if (!(g.cpu.memBwGBs > 0.0)) {
      invalid(*this, where + ": cpu.mem_bw_gbs must be positive (got " +
                         desc::formatNumber(g.cpu.memBwGBs) + ")");
    }
    if (g.nvme && !(g.nvme->readBwGBs > 0.0 && g.nvme->writeBwGBs > 0.0)) {
      invalid(*this, where + ": nvme read/write bandwidth must be positive");
    }
    if (g.disk && !(g.disk->readBwGBs > 0.0 && g.disk->writeBwGBs > 0.0)) {
      invalid(*this, where + ": disk read/write bandwidth must be positive");
    }
  }
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    const TrunkSpec& t = trunks[i];
    if (t.switchA < 0 || t.switchA >= nSwitches) {
      invalid(*this, at("trunks", i) + ".switch_a = " +
                         std::to_string(t.switchA) +
                         " references a nonexistent switch (machine has " +
                         std::to_string(nSwitches) + ")");
    }
    if (t.switchB < 0 || t.switchB >= nSwitches) {
      invalid(*this, at("trunks", i) + ".switch_b = " +
                         std::to_string(t.switchB) +
                         " references a nonexistent switch (machine has " +
                         std::to_string(nSwitches) + ")");
    }
    if (t.switchA == t.switchB) {
      invalid(*this, at("trunks", i) + " connects switch " +
                         std::to_string(t.switchA) + " to itself");
    }
    if (!(t.bandwidthGBs > 0.0)) {
      invalid(*this, at("trunks", i) + ".bandwidth_gbs must be positive (got " +
                         desc::formatNumber(t.bandwidthGBs) + ")");
    }
    if (t.latency < sim::SimTime::zero()) {
      invalid(*this, at("trunks", i) + ".latency_ns must be non-negative");
    }
  }
  for (std::size_t i = 0; i < nams.size(); ++i) {
    const NamAttachment& na = nams[i];
    if (na.switchId < 0 || na.switchId >= nSwitches) {
      invalid(*this, at("nams", i) + ".switch_id " +
                         std::to_string(na.switchId) +
                         " references a nonexistent switch (machine has " +
                         std::to_string(nSwitches) + ")");
    }
    if (!(na.spec.bandwidthGBs > 0.0)) {
      invalid(*this, at("nams", i) + ".bandwidth_gbs must be positive (got " +
                         desc::formatNumber(na.spec.bandwidthGBs) + ")");
    }
  }
}

// ---- Machine ----------------------------------------------------------------

Machine::Machine(sim::Engine& engine, MachineConfig config)
    : engine_(engine), config_(std::move(config)) {
  config_.validate();
  int id = 0;
  for (std::size_t g = 0; g < config_.groups.size(); ++g) {
    const NodeGroupSpec& grp = config_.groups[g];
    for (int i = 0; i < grp.count; ++i, ++id) {
      Node n;
      n.id = id;
      n.kind = grp.kind;
      n.name = twoDigit(grp.namePrefix, i);
      n.groupIndex = static_cast<int>(g);
      n.switchId = grp.switchId;
      n.cpu = grp.cpu;
      n.hasNvme = grp.nvme.has_value();
      n.mpiSwOverhead = grp.mpiSwOverhead;
      n.activeWatts = grp.activeWatts;
      nodes_.push_back(n);
      cpuModels_.push_back(std::make_unique<CpuModel>(grp.cpu));
      nvmes_.push_back(grp.nvme ? std::make_unique<NvmeDevice>(engine_, *grp.nvme)
                                : nullptr);
      disks_.push_back(grp.disk ? std::make_unique<DiskDevice>(engine_, *grp.disk)
                                : nullptr);
    }
  }
  for (const auto& na : config_.nams) {
    nams_.push_back(std::make_unique<NamDevice>(na.spec));
    namSwitches_.push_back(na.switchId);
  }
}

const CpuModel& Machine::cpuModel(int nodeId) const {
  return *cpuModels_.at(static_cast<std::size_t>(nodeId));
}

std::vector<int> Machine::nodesOfKind(NodeKind kind) const {
  std::vector<int> out;
  for (const Node& n : nodes_) {
    if (n.kind == kind) out.push_back(n.id);
  }
  return out;
}

NvmeDevice& Machine::nvme(int nodeId) {
  auto& dev = nvmes_.at(static_cast<std::size_t>(nodeId));
  if (!dev) throw std::out_of_range("node has no NVMe device");
  return *dev;
}

bool Machine::hasNvme(int nodeId) const {
  return nvmes_.at(static_cast<std::size_t>(nodeId)) != nullptr;
}

DiskDevice& Machine::disk(int nodeId) {
  auto& dev = disks_.at(static_cast<std::size_t>(nodeId));
  if (!dev) throw std::out_of_range("node has no disk array");
  return *dev;
}

bool Machine::hasDisk(int nodeId) const {
  return disks_.at(static_cast<std::size_t>(nodeId)) != nullptr;
}

int Machine::endpointSwitch(int endpoint) const {
  if (endpoint < nodeCount()) return node(endpoint).switchId;
  return namSwitches_.at(static_cast<std::size_t>(endpoint - nodeCount()));
}

double Machine::nodeActiveWatts(NodeKind kind) const {
  for (const Node& n : nodes_) {
    if (n.kind == kind) return n.activeWatts;
  }
  return 0.0;
}

double Machine::peakTflops(NodeKind kind) const {
  double gf = 0.0;
  for (const Node& n : nodes_) {
    if (n.kind == kind) gf += CpuModel(n.cpu).spec().peakGflops();
  }
  return gf / 1000.0;
}

}  // namespace cbsim::hw
