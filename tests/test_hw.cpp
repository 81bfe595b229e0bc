// Unit tests for the hardware models: CPU roofline/Amdahl timing, block
// devices, NAM blob store, and machine configuration presets (Table I).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "hw/blob.hpp"
#include "hw/machine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cbsim;
using namespace cbsim::sim::literals;
using sim::SimTime;

// ------------------------------------------------------------------ CpuSpec

TEST(CpuSpec, HaswellPeakMatchesTableI) {
  const hw::CpuSpec s = hw::MachineConfig::xeonHaswell();
  // 24 cores x 2.5 GHz x 16 DP flops/cycle = 960 Gflop/s; 16 nodes ~ 16 TF.
  EXPECT_NEAR(s.peakGflops(), 960.0, 1.0);
  EXPECT_EQ(s.cores, 24);
  EXPECT_EQ(s.threads(), 48);
}

TEST(CpuSpec, KnlPeakMatchesTableI) {
  const hw::CpuSpec s = hw::MachineConfig::xeonPhiKnl();
  // 64 cores x 1.3 GHz x 32 DP flops/cycle = 2662 Gflop/s; 8 nodes ~ 20 TF.
  EXPECT_NEAR(s.peakGflops(), 2662.4, 1.0);
  EXPECT_EQ(s.threads(), 256);
}

TEST(CpuSpec, SingleThreadRatioFavoursHaswell) {
  const double haswell = hw::MachineConfig::xeonHaswell().scalarGops();
  const double knl = hw::MachineConfig::xeonPhiKnl().scalarGops();
  // The paper attributes the Booster's higher MPI latency and the field
  // solver's 6x slowdown to the much lower single-thread performance.
  EXPECT_GT(haswell / knl, 4.0);
}

// ----------------------------------------------------------------- CpuModel

TEST(CpuModel, ComputeBoundKernelScalesWithCores) {
  const hw::CpuModel m(hw::MachineConfig::xeonHaswell());
  hw::Work w;
  w.flops = 960e9;  // exactly one second at 24-core peak
  w.bytes = 1.0;
  const double t24 = m.time(w, 24).toSeconds();
  const double t1 = m.time(w, 1).toSeconds();
  EXPECT_NEAR(t24, 1.0, 1e-9);
  EXPECT_NEAR(t1 / t24, 24.0, 1e-6);
}

TEST(CpuModel, MemoryBoundKernelLimitedByBandwidth) {
  const hw::CpuModel m(hw::MachineConfig::xeonHaswell());
  hw::Work w;
  w.flops = 1.0;
  w.bytes = 120e9;  // one second at 120 GB/s
  EXPECT_NEAR(m.time(w).toSeconds(), 1.0, 1e-9);
}

TEST(CpuModel, McdramLiftsBandwidthRoofOnKnl) {
  const hw::CpuModel m(hw::MachineConfig::xeonPhiKnl());
  hw::Work w;
  w.bytes = 420e9;
  w.fitsFastMemory = true;
  EXPECT_NEAR(m.time(w).toSeconds(), 1.0, 1e-9);
  w.fitsFastMemory = false;  // spills to DDR4
  EXPECT_NEAR(m.time(w).toSeconds(), 420.0 / 80.0, 1e-6);
}

TEST(CpuModel, SerialOpsAreAmdahlTerm) {
  const hw::CpuModel haswell(hw::MachineConfig::xeonHaswell());
  const hw::CpuModel knl(hw::MachineConfig::xeonPhiKnl());
  hw::Work w;
  w.serialOps = 5.5e9;  // exactly 1 s on Haswell (2.5 GHz x 2.2 IPC)
  EXPECT_NEAR(haswell.time(w).toSeconds(), 1.0, 1e-9);
  // KNL: 1.3 GHz x 0.7 IPC -> ~6x slower on the same serial path, which is
  // the single-node mechanism behind the paper's 6x field-solver gap.
  EXPECT_NEAR(knl.time(w).toSeconds(), 5.5 / 0.91, 1e-3);
}

TEST(CpuModel, VectorEfficiencyDeratesFlopRoof) {
  const hw::CpuModel m(hw::MachineConfig::xeonHaswell());
  hw::Work w;
  w.flops = 960e9;
  w.vectorEfficiency = 0.5;
  EXPECT_NEAR(m.time(w).toSeconds(), 2.0, 1e-9);
}

TEST(CpuModel, ThreadCountClampedToHardware) {
  const hw::CpuModel m(hw::MachineConfig::xeonHaswell());
  hw::Work w;
  w.flops = 960e9;
  EXPECT_EQ(m.time(w, 10000), m.time(w, 48));
  EXPECT_EQ(m.time(w, -3), m.time(w, 1));
}

TEST(CpuModel, SmtThreadsDoNotAddFlopThroughput) {
  const hw::CpuModel m(hw::MachineConfig::xeonHaswell());
  hw::Work w;
  w.flops = 960e9;
  EXPECT_EQ(m.time(w, 48), m.time(w, 24));
}

// ------------------------------------------------------------------- Work

TEST(Work, AccumulationBlendsEfficiency) {
  hw::Work a;
  a.flops = 100.0;
  a.vectorEfficiency = 1.0;
  hw::Work b;
  b.flops = 100.0;
  b.vectorEfficiency = 0.5;
  const hw::Work c = a + b;
  EXPECT_DOUBLE_EQ(c.flops, 200.0);
  EXPECT_DOUBLE_EQ(c.vectorEfficiency, 0.75);
  EXPECT_TRUE(c.fitsFastMemory);
}

// ------------------------------------------------------------- BlockDevice

TEST(BlockDevice, ServiceTimeIsLatencyPlusTransfer) {
  sim::Engine e;
  hw::NvmeSpec spec;  // 2.8 / 1.9 GB/s, 20 us latency
  hw::NvmeDevice dev(e, spec);
  const double gib = 1.9e9;
  EXPECT_NEAR(dev.serviceTime(gib, /*isWrite=*/true).toSeconds(),
              1.0 + 20e-6, 1e-6);
}

TEST(BlockDevice, ConcurrentWritersQueue) {
  sim::Engine e;
  hw::NvmeDevice dev(e);
  std::vector<double> doneAt;
  for (int i = 0; i < 2; ++i) {
    e.spawn("w" + std::to_string(i), [&](sim::Context& ctx) {
      dev.write(ctx, 1.9e9);  // 1 s of service each
      doneAt.push_back(ctx.now().toSeconds());
    });
  }
  e.run();
  ASSERT_EQ(doneAt.size(), 2u);
  EXPECT_NEAR(doneAt[0], 1.0, 1e-3);
  EXPECT_NEAR(doneAt[1], 2.0, 1e-3);  // serialized behind the first
  EXPECT_NEAR(dev.bytesWritten(), 3.8e9, 1.0);
}

TEST(BlockDevice, DiskIsSlowerThanNvme) {
  sim::Engine e;
  hw::NvmeDevice nvme(e);
  hw::DiskDevice disk(e);
  EXPECT_GT(disk.serviceTime(1e9, true), nvme.serviceTime(1e9, true) * 5);
}

// ------------------------------------------------------------------- Blob

// A blob holds its payload up to the last non-zero byte and rebuilds the
// rest as zeros.  One blob and one output vector go through every case in
// turn, so each case also overwrites what the one before left.
TEST(Blob, HoldsNonZeroHeadAndRebuildsZeroTail) {
  const auto withBytes = [](std::size_t n,
                            std::initializer_list<std::pair<std::size_t, int>> set) {
    std::vector<std::byte> v(n);
    for (const auto& [at, value] : set) v[at] = static_cast<std::byte>(value);
    return v;
  };
  struct Case {
    const char* name;
    std::vector<std::byte> data;
    std::size_t held;
  };
  const std::vector<Case> cases = {
      {"dense", std::vector<std::byte>(5000, std::byte{0xAB}), 5000},
      {"empty", {}, 0},
      {"all zero", std::vector<std::byte>(65536), 0},
      {"zero tail", withBytes(65536, {{0, 7}}), 1},
      {"tail ends mid-word", withBytes(10000, {{4100, 3}}), 4101},
      {"interior zeros", withBytes(6, {{0, 1}, {3, 2}}), 4},
      {"non-zero last byte", withBytes(4097, {{4096, 5}}), 4097},
  };
  hw::Blob b;
  std::vector<std::byte> out(3, std::byte{0xFF});
  for (const Case& c : cases) {
    b.assign(c.data);
    EXPECT_EQ(b.size(), c.data.size()) << c.name;
    EXPECT_TRUE(std::ranges::equal(
        b.head(), std::span<const std::byte>(c.data).first(c.held)))
        << c.name << ": holds " << b.head().size() << " bytes";
    b.copyTo(out);
    EXPECT_EQ(out, c.data) << c.name;
  }
}

// -------------------------------------------------------------------- NAM

std::vector<std::byte> blob(std::size_t n, int fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

TEST(NamDevice, PutGetRoundtrip) {
  hw::NamDevice nam;
  const auto data = blob(1024, 0xAB);
  ASSERT_TRUE(nam.put("ckpt/rank0", data));
  const auto* back = nam.get("ckpt/rank0");
  ASSERT_NE(back, nullptr);
  std::vector<std::byte> bytes;
  back->copyTo(bytes);
  EXPECT_EQ(bytes, data);
  EXPECT_EQ(nam.usedBytes(), 1024u);
}

TEST(NamDevice, CapacityEnforced) {
  hw::NamSpec spec;
  spec.capacityGB = 1e-6;  // 1000 bytes
  hw::NamDevice nam(spec);
  EXPECT_TRUE(nam.put("a", blob(600, 1)));
  EXPECT_FALSE(nam.put("b", blob(600, 2)));  // would exceed capacity
  EXPECT_EQ(nam.get("b"), nullptr);
  EXPECT_EQ(nam.usedBytes(), 600u);
  // Overwriting an existing key releases its old allocation first.
  EXPECT_TRUE(nam.put("a", blob(900, 3)));
  EXPECT_EQ(nam.usedBytes(), 900u);
}

// An all-zero blob holds no bytes but still fills its full size of the
// device.
TEST(NamDevice, CapacityChargesLogicalSize) {
  hw::NamSpec spec;
  spec.capacityGB = 1e-6;  // 1000 bytes
  hw::NamDevice nam(spec);
  ASSERT_TRUE(nam.put("zeros", blob(600, 0)));
  const hw::Blob* back = nam.get("zeros");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->head().size(), 0u);
  EXPECT_EQ(back->size(), 600u);
  EXPECT_EQ(nam.usedBytes(), 600u);
  EXPECT_FALSE(nam.put("more", blob(600, 0)));
  EXPECT_TRUE(nam.erase("zeros"));
  EXPECT_EQ(nam.usedBytes(), 0u);
}

TEST(NamDevice, EraseReleasesSpace) {
  hw::NamDevice nam;
  nam.put("x", blob(512, 7));
  EXPECT_TRUE(nam.erase("x"));
  EXPECT_FALSE(nam.erase("x"));
  EXPECT_EQ(nam.usedBytes(), 0u);
}

TEST(NamDevice, ServiceTimeScalesWithSize) {
  hw::NamDevice nam;
  const auto t1 = nam.serviceTime(1e6);
  const auto t2 = nam.serviceTime(2e6);
  EXPECT_GT(t2, t1);
  EXPECT_GE(t1, nam.spec().accessLatency);
}

// ------------------------------------------------------------------ Machine

TEST(Machine, DeepErPrototypeMatchesTableI) {
  sim::Engine e;
  hw::Machine m(e, hw::MachineConfig::deepEr());
  EXPECT_EQ(m.nodesOfKind(hw::NodeKind::Cluster).size(), 16u);
  EXPECT_EQ(m.nodesOfKind(hw::NodeKind::Booster).size(), 8u);
  EXPECT_EQ(m.nodesOfKind(hw::NodeKind::Storage).size(), 3u);
  EXPECT_EQ(m.namCount(), 2);
  // Peak performance rows: ~16 TFlop/s Cluster, ~20 TFlop/s Booster.
  EXPECT_NEAR(m.peakTflops(hw::NodeKind::Cluster), 15.4, 0.5);
  EXPECT_NEAR(m.peakTflops(hw::NodeKind::Booster), 21.3, 0.5);
}

TEST(Machine, NodeNamingAndKinds) {
  sim::Engine e;
  hw::Machine m(e, hw::MachineConfig::deepEr(4, 2));
  EXPECT_EQ(m.node(0).name, "cn00");
  EXPECT_EQ(m.node(3).name, "cn03");
  EXPECT_EQ(m.node(4).name, "bn00");
  EXPECT_EQ(m.node(4).kind, hw::NodeKind::Booster);
  EXPECT_EQ(m.node(4).cpu.microarchitecture, "Knights Landing (KNL)");
}

TEST(Machine, NvmeOnComputeNodesDiskOnStorage) {
  sim::Engine e;
  hw::Machine m(e, hw::MachineConfig::deepEr(2, 2));
  EXPECT_TRUE(m.hasNvme(0));
  EXPECT_TRUE(m.hasNvme(3));
  EXPECT_FALSE(m.hasDisk(0));
  const int storage = m.nodesOfKind(hw::NodeKind::Storage).front();
  EXPECT_TRUE(m.hasDisk(storage));
  EXPECT_THROW((void)m.disk(0), std::out_of_range);
  EXPECT_THROW((void)m.nvme(storage), std::out_of_range);
}

TEST(Machine, EndpointNumberingCoversNams) {
  sim::Engine e;
  hw::Machine m(e, hw::MachineConfig::deepEr(2, 1));
  EXPECT_EQ(m.endpointCount(), m.nodeCount() + 2);
  EXPECT_EQ(m.endpointOfNam(0), m.nodeCount());
  EXPECT_EQ(m.endpointSwitch(m.endpointOfNam(1)), 0);
}

TEST(Machine, Gen1HasTwoNetworksAndBridges) {
  sim::Engine e;
  hw::Machine m(e, hw::MachineConfig::deepGen1(4, 8, 2));
  EXPECT_EQ(m.config().switches.size(), 2u);
  EXPECT_TRUE(m.config().bridgeBetweenSwitches);
  EXPECT_EQ(m.nodesOfKind(hw::NodeKind::Bridge).size(), 2u);
  const int bn = m.nodesOfKind(hw::NodeKind::Booster).front();
  EXPECT_EQ(m.node(bn).switchId, 1);
  EXPECT_EQ(m.node(bn).cpu.microarchitecture, "Knights Corner");
}

TEST(Machine, DeepEstAddsAnalyticsModule) {
  sim::Engine e;
  hw::Machine m(e, hw::MachineConfig::deepEst(2, 2, 2));
  const auto dn = m.nodesOfKind(hw::NodeKind::Analytics);
  ASSERT_EQ(dn.size(), 2u);
  EXPECT_GT(m.node(dn[0]).cpu.memGiB, 256.0);
}

TEST(Machine, PowerModelFollowsTheModules) {
  sim::Engine e;
  hw::Machine m(e, hw::MachineConfig::deepEr(2, 2));
  // Dual-socket Haswell node draws more than the single-socket KNL node;
  // both are in server-node range.
  const double cn = m.nodeActiveWatts(hw::NodeKind::Cluster);
  const double bn = m.nodeActiveWatts(hw::NodeKind::Booster);
  EXPECT_GT(cn, bn);
  EXPECT_GT(bn, 150.0);
  EXPECT_LT(cn, 600.0);
  // Energy efficiency (peak flops per Watt) favours the Booster - the
  // DEEP rationale for building it.
  const double cnEff = m.peakTflops(hw::NodeKind::Cluster) * 1e3 / (2 * cn);
  const double bnEff = m.peakTflops(hw::NodeKind::Booster) * 1e3 / (2 * bn);
  EXPECT_GT(bnEff, 2.0 * cnEff);
}

TEST(Machine, InvalidSwitchAttachmentRejected) {
  sim::Engine e;
  hw::MachineConfig cfg = hw::MachineConfig::deepEr(1, 1);
  cfg.groups[0].switchId = 5;
  EXPECT_THROW(hw::Machine(e, cfg), std::invalid_argument);
}

}  // namespace
