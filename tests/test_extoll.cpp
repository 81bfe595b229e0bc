// Unit tests for the fabric model: path latency calibration, serialization
// and contention, trunk routing, gen-1 bridge store-and-forward, loopback.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "extoll/fabric.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cbsim;
using namespace cbsim::sim::literals;
using sim::SimTime;

struct FabricFixture {
  sim::Engine engine;
  hw::Machine machine;
  extoll::Fabric fabric;

  explicit FabricFixture(hw::MachineConfig cfg)
      : machine(engine, std::move(cfg)), fabric(machine) {}
};

TEST(Fabric, WireLatencyCalibration) {
  // Fig. 3 calibration: the non-software part of a same-switch message is
  // 2 NIC + 2 wire + 1 switch = 300 ns on EXTOLL.
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  EXPECT_EQ(f.fabric.pathLatency(0, 1), 300_ns);
  EXPECT_EQ(f.fabric.pathLatency(0, 2), 300_ns);  // CN -> BN, same fabric
}

TEST(Fabric, EffectiveBandwidthIsDerated) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  // 12.5 GB/s raw x 0.80 protocol efficiency = 10 GB/s goodput plateau.
  EXPECT_NEAR(f.fabric.bottleneckBwGBs(0, 1), 10.0, 1e-9);
}

TEST(Fabric, DeliveryTimeIsLatencyPlusSerialization) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  SimTime arrived = SimTime::zero();
  const double bytes = 1e6;  // 100 us at 10 GB/s
  f.fabric.send(0, 1, bytes, [&] { arrived = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(arrived.toMicros(), 0.3 + 100.0, 0.01);
}

TEST(Fabric, ConcurrentSendsOnSameLinkSerialize) {
  FabricFixture f(hw::MachineConfig::deepEr(3, 0));
  std::vector<double> arrivals;
  const double bytes = 1e6;  // 100 us serialization each
  // Two messages leave node 0 simultaneously: the shared uplink serializes.
  f.fabric.send(0, 1, bytes, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.fabric.send(0, 2, bytes, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 100.3, 0.01);
  EXPECT_NEAR(arrivals[1], 200.3, 0.01);
}

TEST(Fabric, DisjointPathsDoNotContend) {
  FabricFixture f(hw::MachineConfig::deepEr(4, 0));
  std::vector<double> arrivals;
  const double bytes = 1e6;
  f.fabric.send(0, 1, bytes, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.fabric.send(2, 3, bytes, [&] { arrivals.push_back(f.engine.now().toMicros()); });
  f.engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 100.3, 0.01);
  EXPECT_NEAR(arrivals[1], 100.3, 0.01);
}

TEST(Fabric, LoopbackNeverTouchesNic) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 1));
  SimTime arrived = SimTime::zero();
  f.fabric.send(0, 0, 1.0, [&] { arrived = f.engine.now(); });
  f.engine.run();
  EXPECT_LT(arrived, 300_ns);
}

TEST(Fabric, NamEndpointIsRoutable) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 1));
  const int namEp = f.machine.endpointOfNam(0);
  SimTime arrived = SimTime::zero();
  f.fabric.send(0, namEp, 4096, [&] { arrived = f.engine.now(); });
  f.engine.run();
  EXPECT_GT(arrived, SimTime::zero());
  EXPECT_EQ(f.fabric.pathLatency(0, namEp), 300_ns);
}

TEST(Fabric, Gen1CrossNetworkGoesThroughBridge) {
  FabricFixture f(hw::MachineConfig::deepGen1(4, 4, 2));
  const int cn = f.machine.nodesOfKind(hw::NodeKind::Cluster).front();
  const int bn = f.machine.nodesOfKind(hw::NodeKind::Booster).front();
  SimTime arrived = SimTime::zero();
  f.fabric.send(cn, bn, 1e6, [&] { arrived = f.engine.now(); });
  f.engine.run();
  EXPECT_EQ(f.fabric.stats().bridgeHops, 1u);
  // Two legs + CPU forward: must be far slower than a same-network message.
  EXPECT_GT(f.fabric.pathLatency(cn, bn), 2 * f.fabric.pathLatency(cn, cn + 1));
  EXPECT_LT(f.fabric.bottleneckBwGBs(cn, bn),
            f.fabric.bottleneckBwGBs(bn, bn + 1) / 2.0 + 1e-9);
  EXPECT_GT(arrived, SimTime::zero());
}

TEST(Fabric, Gen1SameNetworkSkipsBridge) {
  FabricFixture f(hw::MachineConfig::deepGen1(4, 4, 2));
  const auto bns = f.machine.nodesOfKind(hw::NodeKind::Booster);
  SimTime arrived = SimTime::zero();
  f.fabric.send(bns[0], bns[1], 1e3, [&] { arrived = f.engine.now(); });
  f.engine.run();
  EXPECT_EQ(f.fabric.stats().bridgeHops, 0u);
}

TEST(Fabric, QueriesAreObservationallyPure) {
  // Regression: pathLatency()/bottleneckBwGBs() used to advance the gen-1
  // bridge round-robin through a mutable member, so merely *asking* about a
  // bridged path changed which bridge later traffic took — and with it the
  // whole arrival schedule.  Interleaving an arbitrary query storm must
  // leave the picosecond-exact schedule untouched.
  const auto schedule = [](bool queryStorm) {
    FabricFixture f(hw::MachineConfig::deepGen1(4, 4, 2));
    const auto cns = f.machine.nodesOfKind(hw::NodeKind::Cluster);
    const auto bns = f.machine.nodesOfKind(hw::NodeKind::Booster);
    std::vector<std::int64_t> arrivals;
    for (int i = 0; i < 6; ++i) {
      const int cn = cns[static_cast<std::size_t>(i) % cns.size()];
      const int bn = bns[static_cast<std::size_t>(i) % bns.size()];
      if (queryStorm) {
        for (int q = 0; q < 3 + i; ++q) {
          (void)f.fabric.pathLatency(cn, bn);
          (void)f.fabric.bottleneckBwGBs(bn, cn);
        }
      }
      f.fabric.send(cn, bn, 1e5 * (i + 1),
                    [&] { arrivals.push_back(f.engine.now().picos()); });
    }
    f.engine.run();
    EXPECT_GT(f.fabric.stats().bridgeHops, 0u);  // the storm hits bridged paths
    return arrivals;
  };
  const auto clean = schedule(false);
  ASSERT_EQ(clean.size(), 6u);
  EXPECT_EQ(clean, schedule(true));
}

TEST(Fabric, TrunkRouteCrossesSwitches) {
  hw::MachineConfig cfg = hw::MachineConfig::deepEr(2, 2);
  // Split the Booster group onto a second switch joined by a trunk.
  cfg.switches.push_back({"booster-extoll", cfg.switches[0].net});
  cfg.groups[1].switchId = 1;
  cfg.trunks.push_back({0, 1, 12.5, sim::SimTime::ns(150)});
  FabricFixture f(std::move(cfg));
  const int cn = 0, bn = 2;
  // 2 NIC + 2 wire + 2 switch + trunk = 150+50+200+150 = 550 ns.
  EXPECT_EQ(f.fabric.pathLatency(cn, bn), 550_ns);
  SimTime arrived = SimTime::zero();
  f.fabric.send(cn, bn, 1e6, [&] { arrived = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(arrived.toMicros(), 0.55 + 100.0, 0.01);
}

TEST(Fabric, UnroutableTopologyThrows) {
  hw::MachineConfig cfg = hw::MachineConfig::deepEr(2, 2);
  cfg.switches.push_back({"isolated", cfg.switches[0].net});
  cfg.groups[1].switchId = 1;  // no trunk, no bridge
  FabricFixture f(std::move(cfg));
  EXPECT_THROW(f.fabric.send(0, 2, 1.0, [] {}), std::runtime_error);
}

TEST(Fabric, StatsAccumulate) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 1));
  f.fabric.send(0, 1, 100.0, [] {});
  f.fabric.send(1, 2, 200.0, [] {});
  f.engine.run();
  EXPECT_EQ(f.fabric.stats().messages, 2u);
  EXPECT_DOUBLE_EQ(f.fabric.stats().bytes, 300.0);
}

// ---- Fault injection ---------------------------------------------------------

TEST(FaultPlan, RejectsMalformedWindows) {
  fault::FaultPlan plan;
  EXPECT_THROW(plan.degradeEndpoint(-1, SimTime::zero(), SimTime::us(1), 0.5),
               std::invalid_argument);
  EXPECT_THROW(plan.degradeEndpoint(0, SimTime::us(1), SimTime::us(1), 0.5),
               std::invalid_argument);
  EXPECT_THROW(plan.degradeEndpoint(0, SimTime::zero(), SimTime::us(1), 1.5),
               std::invalid_argument);
  EXPECT_THROW(plan.add({.kind = fault::Kind::Trunk,
                         .from = SimTime::us(2),
                         .until = SimTime::us(1),
                         .bwFactor = 0.5}),
               std::invalid_argument);
  EXPECT_THROW(plan.crashNode(0, SimTime::us(1), SimTime::zero()),
               std::invalid_argument);
  EXPECT_FALSE(plan.active());  // rejected windows must not be recorded
}

TEST(FaultPlan, OverlappingWindowsCompoundAndFlapShortCircuits) {
  fault::FaultPlan plan;
  plan.degradeEndpoint(3, SimTime::us(10), SimTime::us(30), 0.5);
  plan.degradeEndpoint(3, SimTime::us(20), SimTime::us(40), 0.5);
  const auto at = [&](int ep, std::int64_t us) {
    return plan.factor(fault::Kind::Endpoint, ep, SimTime::us(us));
  };
  EXPECT_DOUBLE_EQ(at(3, 15), 0.5);
  EXPECT_DOUBLE_EQ(at(3, 25), 0.25);
  EXPECT_DOUBLE_EQ(at(3, 35), 0.5);
  EXPECT_DOUBLE_EQ(at(3, 45), 1.0);
  EXPECT_DOUBLE_EQ(at(4, 25), 1.0);
  EXPECT_DOUBLE_EQ(plan.factor(fault::Kind::Trunk, 3, SimTime::us(25)), 1.0);
  plan.flapEndpoint(3, SimTime::us(22), SimTime::us(24));
  EXPECT_DOUBLE_EQ(at(3, 23), 0.0);
  EXPECT_TRUE(plan.active());
}

TEST(Fabric, DegradedEndpointStretchesSerialization) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  fault::FaultPlan plan;
  plan.degradeEndpoint(0, SimTime::zero(), SimTime::ms(10), 0.5);
  f.fabric.setFaultPlan(&plan);
  SimTime arrived = SimTime::zero();
  f.fabric.send(0, 1, 1e6, [&] { arrived = f.engine.now(); });
  f.engine.run();
  // Half the bandwidth: 200 us serialization instead of 100.
  EXPECT_NEAR(arrived.toMicros(), 0.3 + 200.0, 0.01);
}

TEST(Fabric, DownEndpointDropsTraffic) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  fault::FaultPlan plan;
  plan.flapEndpoint(1, SimTime::zero(), SimTime::ms(1));
  f.fabric.setFaultPlan(&plan);
  bool arrived = false;
  f.fabric.send(0, 1, 1e3, [&] { arrived = true; });
  f.engine.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(f.fabric.stats().drops, 1u);
  // After the window the same route works again.
  f.engine.scheduleAt(SimTime::ms(2), [&] {
    f.fabric.send(0, 1, 1e3, [&] { arrived = true; });
  });
  f.engine.run();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(f.fabric.stats().drops, 1u);
}

TEST(Fabric, RandomDropIsCountedAndSilent) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  fault::FaultPlan plan;
  plan.dropProb = 1.0;
  f.fabric.setFaultPlan(&plan);
  int arrivals = 0;
  for (int i = 0; i < 3; ++i) {
    f.fabric.send(0, 1, 1e3, [&] { ++arrivals; });
  }
  f.engine.run();
  EXPECT_EQ(arrivals, 0);
  EXPECT_EQ(f.fabric.stats().drops, 3u);
  EXPECT_EQ(f.fabric.stats().messages, 3u);
}

TEST(Fabric, SendReliableRepairsLossExactlyOnce) {
  // The io/ RDMA paths use the reliable-connection send: drops and
  // corrupts are repaired by NIC-level retransmit, the arrival callback
  // fires exactly once, and the traffic shows up in the retransmit
  // counter.  dropProb 0.7 loses several attempts before one survives.
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  fault::FaultPlan plan;
  plan.dropProb = 0.7;
  f.fabric.setFaultPlan(&plan);
  int arrivals = 0;
  f.fabric.sendReliable(0, 1, 1e6, [&] { ++arrivals; });
  f.engine.run();
  EXPECT_EQ(arrivals, 1);
  EXPECT_GT(f.fabric.stats().drops, 0u);
  EXPECT_EQ(f.fabric.stats().retransmits, f.fabric.stats().drops);
}

TEST(Fabric, SendReliableWithoutPlanIsPlainSend) {
  // No active plan: one message, no retransmit machinery, identical
  // arrival time to send().
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  SimTime reliableAt = SimTime::zero();
  f.fabric.sendReliable(0, 1, 1e3, [&] { reliableAt = f.engine.now(); });
  f.engine.run();
  FabricFixture g(hw::MachineConfig::deepEr(2, 2));
  SimTime plainAt = SimTime::zero();
  g.fabric.send(0, 1, 1e3, [&] { plainAt = g.engine.now(); });
  g.engine.run();
  EXPECT_EQ(reliableAt.picos(), plainAt.picos());
  EXPECT_EQ(f.fabric.stats().retransmits, 0u);
}

TEST(Fabric, CorruptMessageOccupiesPathButNeverDelivers) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  fault::FaultPlan plan;
  plan.corruptProb = 1.0;
  f.fabric.setFaultPlan(&plan);
  bool arrived = false;
  f.fabric.send(0, 1, 1e6, [&] { arrived = true; });
  f.engine.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(f.fabric.stats().corrupts, 1u);
  EXPECT_EQ(f.fabric.stats().drops, 0u);
  // The payload still serialized onto the links (100 us of occupancy,
  // observable in the stats) rather than vanishing at injection.
  SimTime second = SimTime::zero();
  f.fabric.setFaultPlan(nullptr);
  // Engine time now sits at the discard event (100.3 us).
  f.fabric.send(0, 1, 1e6, [&] { second = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(second.toMicros(), 100.3 + 0.3 + 100.0, 0.01);
}

TEST(Fabric, LoopbackIsExemptFromFaults) {
  FabricFixture f(hw::MachineConfig::deepEr(2, 2));
  fault::FaultPlan plan;
  plan.dropProb = 1.0;
  plan.flapEndpoint(0, SimTime::zero(), SimTime::ms(1));
  f.fabric.setFaultPlan(&plan);
  bool arrived = false;
  f.fabric.send(0, 0, 1e3, [&] { arrived = true; });
  f.engine.run();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(f.fabric.stats().drops, 0u);
}

TEST(Fabric, DownTrunkDetoursOverBridge) {
  // Booster split onto a second switch joined by a trunk, plus a gen-1
  // style dual-homed bridge node: when the trunk flaps, cross-switch
  // traffic detours through the bridge instead of being lost.
  hw::MachineConfig cfg = hw::MachineConfig::deepEr(2, 2);
  cfg.switches.push_back({"booster-extoll", cfg.switches[0].net});
  cfg.groups[1].switchId = 1;
  cfg.trunks.push_back({0, 1, 12.5, sim::SimTime::ns(150)});
  hw::NodeGroupSpec br;
  br.kind = hw::NodeKind::Bridge;
  br.count = 1;
  br.namePrefix = "bi";
  br.cpu = hw::MachineConfig::xeonHaswell();
  br.switchId = 0;
  br.mpiSwOverhead = sim::SimTime::ns(400);
  cfg.groups.push_back(br);
  FabricFixture f(std::move(cfg));

  fault::FaultPlan plan;
  plan.add({.kind = fault::Kind::Trunk, .until = SimTime::ms(1)});  // down
  f.fabric.setFaultPlan(&plan);
  bool arrived = false;
  f.fabric.send(0, 2, 1e3, [&] { arrived = true; });  // CN -> BN crosses trunk
  f.engine.run();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(f.fabric.stats().drops, 0u);
  EXPECT_EQ(f.fabric.stats().reroutes, 1u);
  EXPECT_GE(f.fabric.stats().bridgeHops, 1u);
}

TEST(Fabric, InertPlanLeavesScheduleUntouched) {
  // Determinism contract: attaching a plan with no faults must not consume
  // RNG draws or perturb a single arrival time.
  const auto schedule = [](bool attachInertPlan) {
    FabricFixture f(hw::MachineConfig::deepEr(3, 2));
    fault::FaultPlan plan;
    if (attachInertPlan) f.fabric.setFaultPlan(&plan);
    std::vector<std::int64_t> arrivals;
    for (int i = 0; i < 5; ++i) {
      f.fabric.send(i % 3, (i + 1) % 4, 1e4 * (i + 1),
                    [&] { arrivals.push_back(f.engine.now().picos()); });
    }
    // Consume engine RNG the way a model would, so a plan that drew from
    // it would shift the stream.
    (void)f.engine.rng().uniform();
    f.engine.run();
    return arrivals;
  };
  EXPECT_EQ(schedule(false), schedule(true));
}

}  // namespace
