// Tests for the core module (partition planner, table printer) and the
// batch scheduler (FIFO vs EASY backfill, malleability).

#include <gtest/gtest.h>

#include <cmath>

#include "core/planner.hpp"
#include "core/table.hpp"
#include "rm/batch.hpp"

namespace {

using namespace cbsim;
using namespace cbsim::sim::literals;
using sim::SimTime;

// ------------------------------------------------------------------ Planner

struct PlannerFixture {
  sim::Engine engine;
  hw::Machine machine{engine, hw::MachineConfig::deepEr()};
  core::PartitionPlanner planner{machine};
};

TEST(Planner, XpicRegionsMapLikeThePaper) {
  PlannerFixture f;
  const auto regions = core::PartitionPlanner::xpicRegions();
  const auto placements = f.planner.plan(regions);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0].region, "field-solver");
  EXPECT_EQ(placements[0].module, hw::NodeKind::Cluster);
  EXPECT_EQ(placements[1].region, "particle-solver");
  EXPECT_EQ(placements[1].module, hw::NodeKind::Booster);
  // Fields advantage on the Cluster should be large (paper: 6x).
  const auto& fm = placements[0].perModule;
  EXPECT_GT(fm.at(hw::NodeKind::Booster) / fm.at(hw::NodeKind::Cluster), 3.0);
}

TEST(Planner, PartitionedModeWinsForXpic) {
  PlannerFixture f;
  const auto regions = core::PartitionPlanner::xpicRegions();
  const auto est = f.planner.evaluateModes(regions, 2 * 4096 * 260 * 8.0);
  EXPECT_TRUE(est.partitionedWins());
  // Gains in the paper's ballpark (1.2x - 1.5x).
  EXPECT_GT(est.clusterOnlySec / est.partitionedSec, 1.1);
  EXPECT_LT(est.clusterOnlySec / est.partitionedSec, 1.6);
}

TEST(Planner, MemoryFootprintExcludesModules) {
  PlannerFixture f;
  core::CodeRegion big;
  big.name = "huge";
  big.workPerStep.flops = 1e9;
  big.memFootprintGiB = 120.0;  // KNL has 112 GiB total, Haswell 128
  const auto placements = f.planner.plan(std::span<const core::CodeRegion>(&big, 1));
  EXPECT_EQ(placements[0].module, hw::NodeKind::Cluster);
  EXPECT_TRUE(std::isinf(placements[0].perModule.at(hw::NodeKind::Booster)));
}

TEST(Planner, LatencyBoundRegionsPreferTheCluster) {
  PlannerFixture f;
  core::CodeRegion chatty;
  chatty.name = "chatty";
  chatty.latencyMsgsPerStep = 1e4;
  const auto p = f.planner.plan(std::span<const core::CodeRegion>(&chatty, 1));
  EXPECT_EQ(p[0].module, hw::NodeKind::Cluster);
}

TEST(Planner, VectorKernelsPreferTheBooster) {
  PlannerFixture f;
  core::CodeRegion simd;
  simd.name = "simd";
  simd.workPerStep.flops = 1e12;
  simd.workPerStep.vectorEfficiency = 0.9;
  const auto p = f.planner.plan(std::span<const core::CodeRegion>(&simd, 1));
  EXPECT_EQ(p[0].module, hw::NodeKind::Booster);
}

// -------------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  core::Table t({"name", "value"});
  t.addRow({"x", core::Table::num(1.5)});
  t.addRow({"longer-name", "99"});
  const std::string s = t.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

// ---------------------------------------------------------------- Batch

struct BatchFixture {
  sim::Engine engine;
  hw::Machine machine{engine, hw::MachineConfig::deepEr(8, 4)};
  rm::ResourceManager res{machine};

  rm::BatchJob job(const std::string& name, int nodes, SimTime dur,
                   hw::NodeKind kind = hw::NodeKind::Cluster) {
    rm::BatchJob j;
    j.name = name;
    j.kind = kind;
    j.nodes = nodes;
    j.duration = dur;
    j.estimate = dur;
    return j;
  }
};

TEST(Batch, FifoRunsJobsInOrder) {
  BatchFixture f;
  rm::BatchScheduler sched(f.machine, f.res, rm::Policy::Fifo);
  const int a = sched.submit(f.job("a", 8, 10_s));
  const int b = sched.submit(f.job("b", 8, 5_s));
  f.engine.run();
  EXPECT_EQ(sched.completed(), 2);
  EXPECT_EQ(sched.stats(a).started, SimTime::zero());
  EXPECT_EQ(sched.stats(b).started, SimTime::sec(10));
  EXPECT_EQ(sched.makespan(), SimTime::sec(15));
}

TEST(Batch, BackfillFillsHolesWithoutDelayingHead) {
  BatchFixture f;
  rm::BatchScheduler sched(f.machine, f.res, rm::Policy::Backfill);
  // j0 takes 6 of 8 nodes for 10 s; j1 (head-blocked) wants all 8;
  // j2 is small and short: it fits in the 2 idle nodes and finishes
  // before j0 does, so backfill starts it immediately.
  sched.submit(f.job("wide-running", 6, 10_s));
  const int head = sched.submit(f.job("blocked-head", 8, 1_s));
  const int filler = sched.submit(f.job("filler", 2, 5_s));
  f.engine.run();
  EXPECT_EQ(sched.stats(filler).started, SimTime::zero());      // backfilled
  EXPECT_EQ(sched.stats(head).started, SimTime::sec(10));       // not delayed
  EXPECT_EQ(sched.completed(), 3);
}

TEST(Batch, FifoWouldNotBackfill) {
  BatchFixture f;
  rm::BatchScheduler sched(f.machine, f.res, rm::Policy::Fifo);
  sched.submit(f.job("wide-running", 6, 10_s));
  sched.submit(f.job("blocked-head", 8, 1_s));
  const int filler = sched.submit(f.job("filler", 2, 5_s));
  f.engine.run();
  EXPECT_GT(sched.stats(filler).started, SimTime::sec(9));
}

TEST(Batch, BackfillRespectsShadowReservation) {
  BatchFixture f;
  rm::BatchScheduler sched(f.machine, f.res, rm::Policy::Backfill);
  sched.submit(f.job("wide-running", 6, 10_s));
  const int head = sched.submit(f.job("blocked-head", 8, 1_s));
  // Too long to fit in the shadow window: must NOT start before the head.
  const int tooLong = sched.submit(f.job("too-long", 2, 20_s));
  f.engine.run();
  EXPECT_GE(sched.stats(tooLong).started, sched.stats(head).started);
  EXPECT_EQ(sched.stats(head).started, SimTime::sec(10));
}

TEST(Batch, PartitionsScheduleIndependently) {
  BatchFixture f;
  rm::BatchScheduler sched(f.machine, f.res, rm::Policy::Fifo);
  sched.submit(f.job("cluster-hog", 8, 100_s));
  const int boosterJob =
      sched.submit(f.job("booster", 4, 1_s, hw::NodeKind::Booster));
  f.engine.run();
  // The Booster job is not stuck behind the Cluster hog.
  EXPECT_EQ(sched.stats(boosterJob).started, SimTime::zero());
}

TEST(Batch, MalleableJobStartsShrunkAndStretches) {
  BatchFixture f;
  rm::BatchScheduler sched(f.machine, f.res, rm::Policy::Fifo);
  sched.submit(f.job("half", 4, 30_s));
  rm::BatchJob m = f.job("malleable", 8, 10_s);
  m.minNodes = 2;
  const int mj = sched.submit(m);
  f.engine.run();
  EXPECT_EQ(sched.stats(mj).started, SimTime::zero());  // started at once
  EXPECT_EQ(sched.stats(mj).grantedNodes, 4);           // shrunk to what's free
  // Runtime stretched 2x: 10 s * 8/4.
  EXPECT_EQ(sched.stats(mj).finished, SimTime::sec(20));
}

TEST(Batch, UtilizationAndWaitStats) {
  BatchFixture f;
  rm::BatchScheduler sched(f.machine, f.res, rm::Policy::Fifo);
  sched.submit(f.job("a", 8, 10_s));
  sched.submit(f.job("b", 8, 10_s));
  f.engine.run();
  EXPECT_NEAR(sched.utilization(hw::NodeKind::Cluster), 1.0, 1e-9);
  EXPECT_EQ(sched.meanWait(), SimTime::sec(5));  // (0 + 10) / 2
}

}  // namespace
