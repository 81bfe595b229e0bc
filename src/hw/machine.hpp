#pragma once

// MachineConfig: declarative description of a modular supercomputer
// (node groups, fabric switches, trunks, NAM devices).
// Machine: the runtime instantiation — nodes, per-node devices, NAMs —
// bound to a simulation engine.  The fabric itself is built on top by
// extoll::Fabric (which consumes the topology described here).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/nam.hpp"
#include "hw/node.hpp"
#include "hw/storage.hpp"
#include "sim/engine.hpp"

namespace cbsim::hw {

struct TopologySpec;  // hw/topology.hpp

/// Parameters of one network technology (per switch).
struct NetClassSpec {
  std::string name = "EXTOLL Tourmalet A3";
  double linkBandwidthGBs = 12.5;    ///< 100 Gbit/s raw
  double protocolEfficiency = 0.80;  ///< headers + flow control -> ~10 GB/s goodput
  sim::SimTime nicLatency = sim::SimTime::ns(75);     ///< per NIC traversal
  sim::SimTime switchLatency = sim::SimTime::ns(100); ///< per switch hop
  sim::SimTime wireLatency = sim::SimTime::ns(25);    ///< per cable segment
};

struct SwitchSpec {
  std::string name;
  NetClassSpec net;
};

/// Inter-switch trunk (bidirectional, one serialized channel per direction).
struct TrunkSpec {
  int switchA = -1;
  int switchB = -1;
  double bandwidthGBs = 12.5;
  sim::SimTime latency = sim::SimTime::ns(150);
};

/// A homogeneous group of nodes (e.g. "16 Cluster nodes").
struct NodeGroupSpec {
  NodeKind kind = NodeKind::Cluster;
  int count = 0;
  std::string namePrefix;  ///< "cn" -> cn00, cn01, ...
  CpuSpec cpu;
  std::optional<NvmeSpec> nvme;
  std::optional<DiskSpec> disk;  ///< storage servers
  int switchId = 0;
  sim::SimTime mpiSwOverhead = sim::SimTime::ns(350);
  double activeWatts = 300.0;  ///< per-node power under load
};

struct NamAttachment {
  NamSpec spec;
  int switchId = 0;
};

struct MachineConfig {
  std::string name;
  std::vector<NodeGroupSpec> groups;
  std::vector<SwitchSpec> switches;
  std::vector<TrunkSpec> trunks;
  std::vector<NamAttachment> nams;
  /// Messages between these switch pairs must store-and-forward through a
  /// Bridge node (gen-1 prototype: InfiniBand <-> EXTOLL).
  bool bridgeBetweenSwitches = false;
  /// Set when this config was generated from a TopologySpec
  /// (TopologySpec::materialize): switches/groups/trunks are the spec's
  /// deterministic expansion.  Enables O(1) structural fat-tree routing
  /// in extoll::Fabric and the compact `topology` form of the canonical
  /// description dump.  Immutable and shared across config copies.
  std::shared_ptr<const TopologySpec> topology;

  [[nodiscard]] int totalNodes() const;
  /// Nodes of `kind` over all groups.
  [[nodiscard]] int countOf(NodeKind kind) const;

  /// Structural validation: every trunk/group/NAM must reference an
  /// existing switch, node groups must be non-empty, bandwidths and
  /// efficiencies must be positive.  Throws std::invalid_argument with a
  /// message naming the offending field ("trunks[0].switch_b ...").
  /// Machine's constructor and the description bindings both call this,
  /// so every construction path is checked the same way.
  void validate() const;

  // ---- Presets -----------------------------------------------------------
  // Defined in hw/desc.cpp: each preset is an embedded description string
  // parsed through the desc bindings (the single construction path).

  /// Second-generation (DEEP-ER) prototype, paper Table I:
  /// 16 Haswell Cluster nodes + 8 KNL Booster nodes, uniform EXTOLL
  /// Tourmalet A3 fabric, per-node 400 GB NVMe, 3 storage servers, 2 NAMs.
  /// Node counts are parameters so tests can build small instances.
  static MachineConfig deepEr(int clusterNodes = 16, int boosterNodes = 8);

  /// First-generation (DEEP) prototype: 128 Sandy Bridge Cluster nodes on
  /// InfiniBand + 384 KNC Booster nodes on EXTOLL, coupled by bridge nodes.
  static MachineConfig deepGen1(int clusterNodes = 128, int boosterNodes = 384,
                                int bridgeNodes = 2);

  /// DEEP-EST style Modular Supercomputing config: Cluster + Booster +
  /// Data-Analytics modules (the paper's outlook, section VI).
  static MachineConfig deepEst(int clusterNodes = 16, int boosterNodes = 16,
                               int analyticsNodes = 4);

  // ---- Reference CPU specs -----------------------------------------------
  static CpuSpec xeonHaswell();      ///< 2x E5-2680 v3 (Table I Cluster)
  static CpuSpec xeonPhiKnl();       ///< Xeon Phi 7210  (Table I Booster)
  static CpuSpec xeonSandyBridge();  ///< gen-1 Cluster
  static CpuSpec xeonPhiKnc();       ///< gen-1 Booster
};

/// Name node `id` would get at Machine construction ("cn03"); "" when out
/// of range.  Free functions so config-level layers (fault validation, the
/// chaos generator) can resolve names without instantiating a Machine.
[[nodiscard]] std::string nodeName(const MachineConfig& config, int id);
/// Node id for a name like "cn03", or -1 when no node has that name.
[[nodiscard]] int findNodeByName(const MachineConfig& config,
                                 const std::string& name);
/// Switch index for a SwitchSpec::name, or -1.
[[nodiscard]] int findSwitchByName(const MachineConfig& config,
                                   const std::string& name);

class Machine {
 public:
  Machine(sim::Engine& engine, MachineConfig config);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] sim::Engine& engine() const { return engine_; }
  [[nodiscard]] const MachineConfig& config() const { return config_; }

  [[nodiscard]] int nodeCount() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const Node& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] const CpuModel& cpuModel(int nodeId) const;
  [[nodiscard]] std::vector<int> nodesOfKind(NodeKind kind) const;

  /// Node-local NVMe; throws std::out_of_range if the node has none.
  [[nodiscard]] NvmeDevice& nvme(int nodeId);
  [[nodiscard]] bool hasNvme(int nodeId) const;
  /// Storage-server disk array; throws if the node has none.
  [[nodiscard]] DiskDevice& disk(int nodeId);
  [[nodiscard]] bool hasDisk(int nodeId) const;

  [[nodiscard]] int namCount() const { return static_cast<int>(nams_.size()); }
  [[nodiscard]] NamDevice& nam(int idx) { return *nams_.at(static_cast<std::size_t>(idx)); }
  [[nodiscard]] int namSwitch(int idx) const { return namSwitches_.at(static_cast<std::size_t>(idx)); }

  /// Fabric endpoint numbering: endpoints [0, nodeCount) are node NICs,
  /// [nodeCount, nodeCount + namCount) are NAM devices.
  [[nodiscard]] int endpointOfNode(int nodeId) const { return nodeId; }
  [[nodiscard]] int endpointOfNam(int namIdx) const { return nodeCount() + namIdx; }
  [[nodiscard]] int endpointCount() const { return nodeCount() + namCount(); }
  [[nodiscard]] int endpointSwitch(int endpoint) const;

  /// Aggregate peak of a node kind in TFlop/s (Table I rows).
  [[nodiscard]] double peakTflops(NodeKind kind) const;
  /// Active power draw of one node of this kind in Watts.
  [[nodiscard]] double nodeActiveWatts(NodeKind kind) const;

 private:
  sim::Engine& engine_;
  MachineConfig config_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<CpuModel>> cpuModels_;        // per node
  std::vector<std::unique_ptr<NvmeDevice>> nvmes_;          // per node (may be null)
  std::vector<std::unique_ptr<DiskDevice>> disks_;          // per node (may be null)
  std::vector<std::unique_ptr<NamDevice>> nams_;
  std::vector<int> namSwitches_;
};

}  // namespace cbsim::hw
