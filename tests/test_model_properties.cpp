// Property tests for the performance-model primitives added for the
// Cluster-Booster calibration: gather/scatter efficiency, fork/join region
// overhead, device reservation, fabric contention conservation, and
// whole-engine determinism under randomized event storms.

#include <gtest/gtest.h>

#include <vector>

#include "extoll/fabric.hpp"
#include "hw/machine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cbsim;
using namespace cbsim::sim::literals;
using sim::SimTime;

// ---- CpuModel: irregular-access derating -----------------------------------------------

TEST(CpuModelProperty, IrregularFractionInterpolatesLinearly) {
  const hw::CpuModel knl(hw::MachineConfig::xeonPhiKnl());
  hw::Work w;
  w.flops = 1e12;
  w.irregularFraction = 0.0;
  const double t0 = knl.time(w).toSeconds();
  w.irregularFraction = 1.0;
  const double t1 = knl.time(w).toSeconds();
  w.irregularFraction = 0.5;
  const double tHalf = knl.time(w).toSeconds();
  // Rates blend linearly; times are the reciprocal, so check the rate.
  EXPECT_NEAR(1.0 / tHalf, 0.5 * (1.0 / t0 + 1.0 / t1), 1e-9 / tHalf);
  EXPECT_GT(t1, t0);  // irregular is never faster
}

TEST(CpuModelProperty, GatherScatterHurtsKnlMoreThanHaswell) {
  const hw::CpuModel knl(hw::MachineConfig::xeonPhiKnl());
  const hw::CpuModel haswell(hw::MachineConfig::xeonHaswell());
  hw::Work w;
  w.flops = 1e12;
  const auto slowdown = [&](const hw::CpuModel& m) {
    hw::Work regular = w;
    hw::Work irregular = w;
    irregular.irregularFraction = 1.0;
    return m.time(irregular).toSeconds() / m.time(regular).toSeconds();
  };
  // KNL's microcoded gathers: ~6.7x penalty vs Haswell's ~1.7x.
  EXPECT_GT(slowdown(knl), 3.0 * slowdown(haswell) / 2.0);
  EXPECT_GT(slowdown(knl), 5.0);
}

// ---- CpuModel: fork/join regions -----------------------------------------------------------

TEST(CpuModelProperty, ParallelRegionCostScalesWithThreads) {
  const hw::CpuModel knl(hw::MachineConfig::xeonPhiKnl());
  hw::Work w;
  w.parallelRegions = 100.0;
  const double t64 = knl.time(w, 64).toSeconds();
  const double t256 = knl.time(w, 256).toSeconds();
  EXPECT_GT(t256, t64);  // more threads -> costlier barrier
  // Base + per-thread form: t(256)/t(64) = (1000+2560)/(1000+640).
  EXPECT_NEAR(t256 / t64, (1000.0 + 256 * 10) / (1000.0 + 64 * 10), 1e-6);
}

TEST(CpuModelProperty, RegionOverheadIsAdditiveWithWork) {
  const hw::CpuModel m(hw::MachineConfig::xeonHaswell());
  hw::Work flopsOnly;
  flopsOnly.flops = 1e10;
  hw::Work regionsOnly;
  regionsOnly.parallelRegions = 50.0;
  hw::Work both = flopsOnly;
  both.parallelRegions = 50.0;
  EXPECT_NEAR(m.time(both).toSeconds(),
              m.time(flopsOnly).toSeconds() + m.time(regionsOnly).toSeconds(),
              1e-12);
}

TEST(WorkProperty, AccumulationIsAssociativeForCounters) {
  hw::Work a, b, c;
  a.flops = 1;
  a.serialOps = 10;
  a.parallelRegions = 2;
  b.bytes = 100;
  b.parallelRegions = 1;
  c.flops = 5;
  c.serialOps = 3;
  const hw::Work ab_c = (a + b) + c;
  const hw::Work a_bc = a + (b + c);
  EXPECT_DOUBLE_EQ(ab_c.flops, a_bc.flops);
  EXPECT_DOUBLE_EQ(ab_c.bytes, a_bc.bytes);
  EXPECT_DOUBLE_EQ(ab_c.serialOps, a_bc.serialOps);
  EXPECT_DOUBLE_EQ(ab_c.parallelRegions, a_bc.parallelRegions);
}

// ---- BlockDevice reservation ----------------------------------------------------------------

TEST(BlockDeviceProperty, ReserveSerializesLikeAccess) {
  sim::Engine e;
  hw::NvmeDevice dev(e);
  const SimTime t1 = dev.reserve(1.9e9, true);  // 1 s
  const SimTime t2 = dev.reserve(1.9e9, true);  // queued behind the first
  EXPECT_GT(t2, t1);
  EXPECT_NEAR((t2 - t1).toSeconds(), t1.toSeconds(), 1e-3);
  EXPECT_EQ(dev.busyUntil(), t2);
}

// ---- Fabric contention conservation ---------------------------------------------------------

TEST(FabricProperty, SharedLinkThroughputIsConserved) {
  // K concurrent messages over one uplink must take at least K times the
  // single-message serialization (no bandwidth created out of thin air),
  // and at most that plus bounded latency overhead.
  for (const int k : {2, 4, 8}) {
    sim::Engine e;
    hw::Machine machine(e, hw::MachineConfig::deepEr(10, 2));
    extoll::Fabric fabric(machine);
    const double bytes = 1e6;  // 100 us each at 10 GB/s
    SimTime last = SimTime::zero();
    for (int i = 0; i < k; ++i) {
      fabric.send(0, 1 + i, bytes, [&e, &last] { last = std::max(last, e.now()); });
    }
    e.run();
    const double serialization = k * bytes / 10e9;
    EXPECT_GE(last.toSeconds(), serialization);
    EXPECT_LE(last.toSeconds(), serialization + 1e-5);
  }
}

TEST(FabricProperty, DeliveryOrderOnOnePathIsFifo) {
  sim::Engine e;
  hw::Machine machine(e, hw::MachineConfig::deepEr(2, 2));
  extoll::Fabric fabric(machine);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    fabric.send(0, 1, 1000.0 * (10 - i),  // mixed sizes, same path
                [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// ---- Engine determinism under randomized storms -----------------------------------------------

TEST(EngineProperty, RandomEventStormIsReproducible) {
  const auto trace = [](std::uint64_t seed) {
    sim::Engine e(seed);
    sim::Rng rng(seed);
    std::vector<std::uint64_t> log;
    for (int i = 0; i < 300; ++i) {
      e.schedule(SimTime::ns(static_cast<std::int64_t>(rng.below(10000))),
                 [&log, i] { log.push_back(static_cast<std::uint64_t>(i)); });
    }
    for (int p = 0; p < 10; ++p) {
      e.spawn("p" + std::to_string(p), [&, p](sim::Context& ctx) {
        sim::Rng r(seed + static_cast<std::uint64_t>(p));
        for (int s = 0; s < 20; ++s) {
          ctx.delay(SimTime::ns(static_cast<std::int64_t>(r.below(5000)) + 1));
          log.push_back(1000u + static_cast<std::uint64_t>(p) * 100 +
                        static_cast<std::uint64_t>(s));
        }
      });
    }
    e.run();
    return log;
  };
  EXPECT_EQ(trace(7), trace(7));           // bit-identical replay
  EXPECT_NE(trace(7), trace(8));           // and actually seed-sensitive
}

}  // namespace
