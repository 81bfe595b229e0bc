// Tests for the generated scale-out topologies (hw/topology.hpp) and the
// structural fat-tree router built on them (extoll/fabric.cpp):
//
//   * generator shape: element counts and the trunk-numbering contract the
//     structural router and the reference's tie-breaks depend on,
//   * validate() / description-layer diagnostics naming the offending
//     `topology.*` field,
//   * the central equivalence property: the structural router and the
//     enumerated reference pick byte-identical routes — on randomized
//     small fat-trees, and on randomized dragonflies and every builtin
//     machine preset (where Auto picks the reference and a forced
//     Structural falls back to it),
//   * cross-model campaign reports: the halo campaign renders the exact
//     same JSON under both routing modes,
//   * flow-level congestion semantics: link-fair sharing halves the rate
//     on a shared link and leaves disjoint paths at full rate,
//   * the per-(src,dst) route cache memoizes and counts hits.

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "desc/schema.hpp"
#include "extoll/fabric.hpp"
#include "hw/desc.hpp"
#include "hw/machine.hpp"
#include "hw/topology.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cbsim;
using namespace cbsim::sim::literals;
using extoll::CongestionModel;
using extoll::Fabric;
using extoll::FabricOptions;
using extoll::RoutingMode;
using hw::TopologySpec;
using sim::SimTime;

struct FabricFixture {
  sim::Engine engine;
  hw::Machine machine;
  Fabric fabric;

  explicit FabricFixture(hw::MachineConfig cfg, FabricOptions opt = {})
      : machine(engine, std::move(cfg)), fabric(machine, opt) {}
};

// ---- generator shape ------------------------------------------------------

TEST(Topology, FatTreeShapeAndTrunkOrder) {
  const TopologySpec t = TopologySpec::fatTreeSpec(4, 2, 4);
  EXPECT_EQ(t.totalNodes(), 16);
  EXPECT_EQ(t.switchCount(), 6);  // 4 leaves + 2 spines
  EXPECT_EQ(t.trunkCount(), 8);   // every leaf to every spine

  const hw::MachineConfig cfg = t.materialize("ft-shape");
  ASSERT_TRUE(cfg.topology);
  EXPECT_EQ(cfg.switches.size(), 6u);
  ASSERT_EQ(cfg.trunks.size(), 8u);

  // The numbering contract: trunk(l, s) = l*spines + s, switch_a = leaf,
  // switch_b = spine.  The structural router computes indices from this.
  const hw::FatTreeLayout ft = t.fatTree();
  for (int l = 0; l < t.pods; ++l) {
    for (int s = 0; s < t.spines; ++s) {
      const hw::TrunkSpec& trunk =
          cfg.trunks[static_cast<std::size_t>(ft.trunk(l, s))];
      EXPECT_EQ(trunk.switchA, ft.leafSwitch(l));
      EXPECT_EQ(trunk.switchB, ft.spineSwitch(s));
    }
  }

  FabricFixture f(cfg);
  EXPECT_EQ(f.machine.nodeCount(), 16);
  EXPECT_EQ(f.fabric.routingMode(), RoutingMode::Structural);
}

TEST(Topology, DragonflyShapeAndTrunkOrder) {
  const TopologySpec t = TopologySpec::dragonflySpec(2, 2, 1);
  const hw::DragonflyLayout d = t.dragonfly();
  EXPECT_EQ(d.groups(), 3);  // a*h + 1
  EXPECT_EQ(t.totalNodes(), 12);
  EXPECT_EQ(t.switchCount(), 6);
  EXPECT_EQ(t.trunkCount(), 6);  // 3 local (one per group) + 3 global

  const hw::MachineConfig cfg = t.materialize("df-shape");
  ASSERT_TRUE(cfg.topology);
  ASSERT_EQ(cfg.trunks.size(), 6u);

  // Local trunks first, per group, router pairs in (ra < rb) order.
  std::size_t idx = 0;
  for (int g = 0; g < d.groups(); ++g) {
    for (int ra = 0; ra < d.a; ++ra) {
      for (int rb = ra + 1; rb < d.a; ++rb) {
        const hw::TrunkSpec& trunk = cfg.trunks[idx++];
        EXPECT_EQ(trunk.switchA, d.switchOf(g, ra));
        EXPECT_EQ(trunk.switchB, d.switchOf(g, rb));
      }
    }
  }
  // Then one global channel per group pair, (g1, g2) pairs in
  // lexicographic order, anchored at the gateway routers, with switch_a
  // in the lower-numbered group.  This order sets the enumerated
  // reference's equal-cost tie-breaks.
  for (int g1 = 0; g1 < d.groups(); ++g1) {
    for (int g2 = g1 + 1; g2 < d.groups(); ++g2) {
      const hw::TrunkSpec& trunk = cfg.trunks[idx++];
      EXPECT_EQ(trunk.switchA, d.switchOf(g1, d.gatewayRouter(g1, g2)));
      EXPECT_EQ(trunk.switchB, d.switchOf(g2, d.gatewayRouter(g2, g1)));
    }
  }
  EXPECT_EQ(idx, cfg.trunks.size());
}

// ---- validation diagnostics ----------------------------------------------

TEST(Topology, ValidateNamesTheOffendingField) {
  const auto whatOf = [](const TopologySpec& t) -> std::string {
    try {
      t.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(whatOf(TopologySpec::fatTreeSpec(0, 2, 4)).find("topology.pods"),
            std::string::npos);
  EXPECT_NE(
      whatOf(TopologySpec::fatTreeSpec(4, 0, 4)).find("topology.spines"),
      std::string::npos);
  // dragonfly(1, 1, 1) gives a*h + 1 = 2 groups; no global level.
  EXPECT_NE(whatOf(TopologySpec::dragonflySpec(1, 1, 1))
                .find("topology.global_per_router"),
            std::string::npos);

  TopologySpec bad = TopologySpec::fatTreeSpec(4, 2, 4);
  bad.trunkBandwidthGBs = 0.0;
  EXPECT_NE(whatOf(bad).find("topology.trunk_bandwidth_gbs"),
            std::string::npos);
}

TEST(Topology, DescDiagnosticsNameTheOffendingField) {
  const auto parseWhat = [](const char* text) -> std::string {
    const desc::Value v = desc::parse(text, "test-machine");
    desc::Reader r(v, "machine");
    try {
      (void)hw::machineConfigFromDesc(r);
    } catch (const desc::SchemaError& e) {
      return e.what();
    }
    return "";
  };
  // An odd radix cannot split into k/2 up + k/2 down ports.
  EXPECT_NE(parseWhat(R"({"name": "bad",
                          "topology": {"kind": "fat-tree", "radix": 3}})")
                .find("topology.radix"),
            std::string::npos);
  // Zero pods survives parsing but fails TopologySpec::validate(), and the
  // description layer re-anchors that message at the reader's path.
  EXPECT_NE(parseWhat(R"({"name": "bad",
                          "topology": {"kind": "fat-tree", "pods": 0,
                                       "spines": 2, "nodes_per_pod": 4}})")
                .find("topology.pods"),
            std::string::npos);
  EXPECT_NE(parseWhat(R"({"name": "bad",
                          "topology": {"kind": "mesh"}})")
                .find("unknown topology kind"),
            std::string::npos);
}

TEST(Topology, MachineConfigValidateCrossChecksTopology) {
  hw::MachineConfig cfg =
      TopologySpec::fatTreeSpec(4, 2, 4).materialize("tamper");
  EXPECT_NO_THROW(cfg.validate());
  cfg.trunks.pop_back();  // hand-edited config no longer matches its spec
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ---- structural == enumerated --------------------------------------------

/// Asserts that the structural router and the enumerated reference return
/// identical routes (same link sequence, latency, and bandwidth) for every
/// sampled endpoint pair of `cfg`.  All pairs when the machine is small;
/// a deterministic stride sample otherwise.
void expectRoutersAgree(const hw::MachineConfig& cfg,
                        bool expectStructural = false) {
  FabricFixture enumerated(
      cfg, {RoutingMode::Enumerated, CongestionModel::Packet});
  FabricFixture structural(
      cfg, {RoutingMode::Structural, CongestionModel::Packet});
  EXPECT_EQ(enumerated.fabric.routingMode(), RoutingMode::Enumerated);
  if (expectStructural) {
    ASSERT_TRUE(cfg.topology);
    EXPECT_EQ(structural.fabric.routingMode(), RoutingMode::Structural);
  }

  const int n = enumerated.machine.endpointCount();
  const int stride = n <= 40 ? 1 : n / 24;
  for (int src = 0; src < n; src += stride) {
    for (int dst = 0; dst < n; dst += stride) {
      if (src == dst) continue;
      const Fabric::RouteInfo a = enumerated.fabric.routeInfo(src, dst);
      const Fabric::RouteInfo b = structural.fabric.routeInfo(src, dst);
      ASSERT_EQ(a.links, b.links)
          << cfg.name << ": link sequence differs for " << src << " -> "
          << dst;
      EXPECT_EQ(a.latency, b.latency)
          << cfg.name << ": latency differs for " << src << " -> " << dst;
      EXPECT_DOUBLE_EQ(a.bwGBs, b.bwGBs)
          << cfg.name << ": bandwidth differs for " << src << " -> " << dst;
      EXPECT_EQ(a.bridgeNode, b.bridgeNode);
    }
  }
}

TEST(Topology, StructuralMatchesEnumeratedOnRandomFatTrees) {
  std::mt19937 rng(20260809u);
  for (int i = 0; i < 6; ++i) {
    const int pods = 2 + static_cast<int>(rng() % 5);    // 2..6
    const int spines = 1 + static_cast<int>(rng() % 4);  // 1..4
    const int perPod = 1 + static_cast<int>(rng() % 4);  // 1..4
    const TopologySpec t = TopologySpec::fatTreeSpec(pods, spines, perPod);
    expectRoutersAgree(
        t.materialize("rand-ft-" + std::to_string(i)), true);
  }
}

TEST(Topology, StructuralMatchesEnumeratedOnRandomDragonflies) {
  // Dragonflies have no structural router: Auto resolves to the
  // enumerated reference, and forcing Structural defers to it.
  const auto check = [](const hw::MachineConfig& cfg) {
    FabricFixture autoMode(cfg);
    EXPECT_EQ(autoMode.fabric.routingMode(), RoutingMode::Enumerated)
        << cfg.name;
    expectRoutersAgree(cfg);
  };
  std::mt19937 rng(20260810u);
  for (int i = 0; i < 6; ++i) {
    int a = 1 + static_cast<int>(rng() % 3);  // 1..3
    int h = 1 + static_cast<int>(rng() % 2);  // 1..2
    if (a * h + 1 < 3) h = 2;                 // need a global level
    const int p = 1 + static_cast<int>(rng() % 2);
    const TopologySpec t = TopologySpec::dragonflySpec(a, p, h);
    check(t.materialize("rand-df-" + std::to_string(i)));
  }
  // A larger instance (9 groups, 36 switches) where 3-global detours
  // through two intermediate groups tie with the direct route.
  check(TopologySpec::dragonflySpec(4, 1, 2).materialize("df-9g"));
}

TEST(Topology, StructuralMatchesEnumeratedOnEveryMachinePreset) {
  // Presets without a generated topology (the paper machines) exercise the
  // fallback: Structural quietly defers to the enumerated reference, so
  // forcing either mode must be byte-identical everywhere.
  for (const std::string& name : hw::machinePresetNames()) {
    SCOPED_TRACE(name);
    expectRoutersAgree(hw::machinePreset(name));
  }
}

// ---- cross-model campaign reports ----------------------------------------

TEST(Topology, HaloCampaignReportIdenticalAcrossRoutingModes) {
  campaign::HaloParams p;
  p.machine = TopologySpec::fatTreeSpec(4, 2, 4).materialize("halo-xmode");
  p.rankCounts = {4, 8};
  p.steps = 3;
  p.allreduceEvery = 2;

  p.fabric.routing = RoutingMode::Enumerated;
  const std::string enumeratedJson = campaign::toJson(
      campaign::runCampaign(campaign::haloCampaign(p), campaign::withJobs(1)));

  p.fabric.routing = RoutingMode::Structural;
  const std::string structuralJson = campaign::toJson(
      campaign::runCampaign(campaign::haloCampaign(p), campaign::withJobs(1)));

  EXPECT_EQ(enumeratedJson, structuralJson);
}

// ---- flow-level congestion model -----------------------------------------

TEST(TopologyFlow, SoloFlowRunsAtFullRate) {
  FabricFixture f(hw::machinePreset("fat-tree-tiny"),
                  {RoutingMode::Auto, CongestionModel::Flow});
  SimTime arrived = SimTime::zero();
  f.fabric.send(0, 1, 1e6, [&] { arrived = f.engine.now(); });
  EXPECT_EQ(f.fabric.activeFlows(), 1u);
  f.engine.run();
  EXPECT_EQ(f.fabric.activeFlows(), 0u);
  // 1 MB at 10 GB/s goodput = 100 us, plus the same-switch 300 ns latency.
  EXPECT_NEAR(arrived.toMicros(), 100.3, 0.01);
}

TEST(TopologyFlow, SharedLinkSplitsBandwidthFairly) {
  FabricFixture f(hw::machinePreset("fat-tree-tiny"),
                  {RoutingMode::Auto, CongestionModel::Flow});
  std::vector<double> arrivals;
  // Nodes 0, 1, 2 share leaf 0: both transfers cross node 0's up-link,
  // which max-min sharing splits 5 GB/s each.
  f.fabric.send(0, 1, 1e6, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.fabric.send(0, 2, 1e6, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 200.3, 0.01);
  EXPECT_NEAR(arrivals[1], 200.3, 0.01);
}

TEST(TopologyFlow, DisjointFlowsDoNotShare) {
  // fat-tree-tiny has 4 nodes per leaf: 0 -> 1 stays on leaf 0 while
  // 4 -> 5 stays on leaf 1; no common link, both at full rate.
  FabricFixture f(hw::machinePreset("fat-tree-tiny"),
                  {RoutingMode::Auto, CongestionModel::Flow});
  std::vector<double> arrivals;
  f.fabric.send(0, 1, 1e6, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.fabric.send(4, 5, 1e6, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 100.3, 0.01);
  EXPECT_NEAR(arrivals[1], 100.3, 0.01);
}

TEST(TopologyFlow, LateJoinerSlowsAnInFlightFlow) {
  // Flow A runs alone for 50 us (half done), then B joins on the shared
  // up-link: A's remaining 0.5 MB drains at 5 GB/s (100 us more).
  FabricFixture f(hw::machinePreset("fat-tree-tiny"),
                  {RoutingMode::Auto, CongestionModel::Flow});
  std::vector<double> arrivals;
  f.fabric.send(0, 1, 1e6, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.engine.schedule(SimTime::micros(50.0), [&] {
    f.fabric.send(0, 2, 1e6,
                  [&] { arrivals.push_back(f.engine.now().toMicros()); });
  });
  f.engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 150.3, 0.01);  // A: 50 us full + 100 us shared
  // B: 100 us shared with A, then its last 0.5 MB alone at full rate.
  EXPECT_NEAR(arrivals[1], 200.3, 0.01);
}

// ---- route cache ----------------------------------------------------------

TEST(Topology, RouteCacheMemoizesPerEndpointPair) {
  FabricFixture f(hw::machinePreset("fat-tree-tiny"));
  EXPECT_EQ(f.fabric.routeCacheSize(), 0u);
  EXPECT_EQ(f.fabric.routeCacheHits(), 0u);

  (void)f.fabric.routeInfo(0, 5);
  EXPECT_EQ(f.fabric.routeCacheSize(), 1u);
  EXPECT_EQ(f.fabric.routeCacheHits(), 0u);

  (void)f.fabric.routeInfo(0, 5);
  EXPECT_EQ(f.fabric.routeCacheSize(), 1u);
  EXPECT_EQ(f.fabric.routeCacheHits(), 1u);

  // The reverse direction is its own entry (paths are direction-specific).
  (void)f.fabric.routeInfo(5, 0);
  EXPECT_EQ(f.fabric.routeCacheSize(), 2u);

  // send() goes through the same cache.
  f.fabric.send(0, 5, 1e3, [] {});
  f.engine.run();
  EXPECT_EQ(f.fabric.routeCacheHits(), 2u);
}

}  // namespace
