// Tests for the core module (partition planner, table printer).

#include <gtest/gtest.h>

#include <cmath>

#include "core/planner.hpp"
#include "core/table.hpp"

namespace {

using namespace cbsim;

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

}  // namespace
