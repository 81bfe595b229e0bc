#pragma once

// Parameterized scale-out topology generators (ROADMAP item 1).
//
// A TopologySpec describes a whole machine by a handful of integers —
// a two-level folded-Clos fat-tree (pods x spines, nodes_per_pod nodes
// per leaf) or a canonical balanced dragonfly(a, p, h) with a*h+1 groups
// — plus the node/net technology every element shares.  materialize()
// expands the spec into an ordinary MachineConfig (switches, groups,
// trunks) deterministically, and the spec rides along on the config so
// the fabric can route a fat-tree *structurally*: a path between two
// endpoints is pure coordinate arithmetic instead of a graph search.
// Dragonflies route through the enumerated reference, like the paper
// machines.
//
// The element-numbering contract below is load-bearing.  The fat-tree
// structural router (extoll/fabric.cpp) and the enumerated reference
// router must pick byte-identical paths, which works because the
// generator emits trunks in the exact lexicographic order the
// reference's shortest-path enumeration visits them.  The trunk order
// also fixes the reference's equal-cost tie-breaks, so it decides every
// generated machine's routes.
//
//   fat-tree:  switches = [leaf 0..pods) ++ [spine 0..spines);
//              trunk(leaf l, spine s) has index l*spines + s with
//              switch_a = leaf, switch_b = spine.  Nodes attach to
//              leaf (node / nodes_per_pod); leaf<->leaf routes go up
//              over one of `spines` equal-cost spine paths.
//   dragonfly: groups g = a*h + 1 (the balanced form: exactly one
//              global channel per group pair).  switch(G, R) = G*a + R.
//              Local trunks first (per group, router pairs (Ra < Rb) in
//              lexicographic order), then global trunks in (G, q) order
//              where port q of group G connects to group (G + q + 1)
//              mod g and router q / h hosts the port; only the G < peer
//              direction is emitted.

#include <string>

#include "hw/machine.hpp"

namespace cbsim::hw {

/// Fat-tree coordinate helpers shared by the generator and the
/// structural router.
struct FatTreeLayout {
  int pods = 0;
  int spines = 0;
  [[nodiscard]] int leafSwitch(int leaf) const { return leaf; }
  [[nodiscard]] int spineSwitch(int spine) const { return pods + spine; }
  [[nodiscard]] bool isLeaf(int switchId) const { return switchId < pods; }
  /// Trunk index of the leaf<->spine cable (leaf-major order).
  [[nodiscard]] int trunk(int leaf, int spine) const {
    return leaf * spines + spine;
  }
};

/// Dragonfly coordinate helpers for the generator.  g = a*h + 1 groups;
/// one global channel per group pair.
struct DragonflyLayout {
  int a = 0;  ///< routers per group
  int h = 0;  ///< global ports per router
  [[nodiscard]] int groups() const { return a * h + 1; }
  [[nodiscard]] int switchOf(int group, int router) const {
    return group * a + router;
  }
  [[nodiscard]] int localTrunksPerGroup() const { return a * (a - 1) / 2; }
  /// Router of `group` that hosts the global channel towards `peer`:
  /// global port q of group G lands on group (G + q + 1) mod g, and
  /// router q / h hosts the port.
  [[nodiscard]] int gatewayRouter(int group, int peer) const {
    const int g = groups();
    const int q = ((peer - group - 1) % g + g) % g;
    return q / h;
  }
};

struct TopologySpec {
  enum class Kind { FatTree, Dragonfly };
  Kind kind = Kind::FatTree;

  // Fat-tree parameters (two-level folded Clos).
  int pods = 0;         ///< leaf switches
  int spines = 0;       ///< spine switches (= uplinks per leaf)
  int nodesPerPod = 0;  ///< nodes per leaf switch

  // Dragonfly(a, p, h); the group count is derived: a*h + 1.
  int routersPerGroup = 0;  ///< a
  int nodesPerRouter = 0;   ///< p
  int globalPerRouter = 0;  ///< h

  // Technology shared by every element of the generated machine.
  NodeKind nodeKind = NodeKind::Cluster;
  CpuSpec cpu;
  NetClassSpec net;
  double trunkBandwidthGBs = 12.5;
  sim::SimTime trunkLatency = sim::SimTime::ns(150);
  sim::SimTime mpiSwOverhead = sim::SimTime::ns(350);
  double activeWatts = 300.0;

  [[nodiscard]] FatTreeLayout fatTree() const { return {pods, spines}; }
  [[nodiscard]] DragonflyLayout dragonfly() const {
    return {routersPerGroup, globalPerRouter};
  }

  [[nodiscard]] int totalNodes() const;
  [[nodiscard]] int switchCount() const;
  [[nodiscard]] int trunkCount() const;

  /// Parameter sanity with messages naming the description field
  /// ("topology.pods must be ..."); throws std::invalid_argument.
  void validate() const;

  /// Expands the spec into a full MachineConfig (deterministic: equal
  /// specs produce byte-identical configs).  The spec itself is stored on
  /// the returned config, which is what enables structural fat-tree
  /// routing and the compact `topology` form of the canonical description
  /// dump.
  [[nodiscard]] MachineConfig materialize(std::string name = "") const;

  // Convenience builders for tests and benches.
  [[nodiscard]] static TopologySpec fatTreeSpec(int pods, int spines,
                                                int nodesPerPod);
  [[nodiscard]] static TopologySpec dragonflySpec(int routersPerGroup,
                                                  int nodesPerRouter,
                                                  int globalPerRouter);
};

}  // namespace cbsim::hw
