// Tests for the observability layer: metrics registry semantics, trace row
// bookkeeping, and the end-to-end guarantees the tracer makes — recording a
// run perturbs nothing, and identical runs serialize byte-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/builtin.hpp"
#include "extoll/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/time.hpp"
#include "xpic/driver.hpp"

namespace {

using namespace cbsim;
using sim::SimTime;

using Snapshot =
    std::vector<std::tuple<std::string, obs::Metrics::Kind, double, double>>;

Snapshot snapshot(const obs::Metrics& m) {
  Snapshot s;
  for (const auto& [name, e] : m.entries()) {
    s.emplace_back(name, e.kind, e.value, e.max);
  }
  return s;
}

TEST(Metrics, CountersAccumulate) {
  obs::Metrics m;
  m.add("msgs");
  m.add("msgs");
  m.add("bytes", 512.0);
  EXPECT_DOUBLE_EQ(m.value("msgs"), 2.0);
  EXPECT_DOUBLE_EQ(m.value("bytes"), 512.0);
  EXPECT_DOUBLE_EQ(m.value("absent"), 0.0);
}

TEST(Metrics, GaugesTrackLastAndMax) {
  obs::Metrics m;
  EXPECT_DOUBLE_EQ(m.gaugeAdd("depth", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.gaugeAdd("depth", 2.0), 3.0);
  EXPECT_DOUBLE_EQ(m.gaugeAdd("depth", -3.0), 0.0);
  EXPECT_DOUBLE_EQ(m.value("depth"), 0.0);
  EXPECT_DOUBLE_EQ(m.maxValue("depth"), 3.0);
  m.gaugeSet("depth", 1.5);
  EXPECT_DOUBLE_EQ(m.value("depth"), 1.5);
  EXPECT_DOUBLE_EQ(m.maxValue("depth"), 3.0);
}

TEST(Metrics, IdsSurviveLaterRegistrations) {
  obs::Metrics m;
  const obs::Metrics::Id first = m.counter("first");
  const obs::Metrics::Id depth = m.gauge("depth");
  m.add(first, 2.0);
  m.gaugeAdd(depth, 5.0);
  // Enough new keys to reallocate the entry vector many times over.
  for (int i = 0; i < 10000; ++i) m.add("k" + std::to_string(i));
  m.add(first, 3.0);
  m.gaugeAdd(depth, -4.0);
  EXPECT_EQ(m.counter("first").index, first.index);  // re-interning is stable
  EXPECT_DOUBLE_EQ(m.value("first"), 5.0);
  EXPECT_DOUBLE_EQ(m.at(depth).value, 1.0);
  EXPECT_DOUBLE_EQ(m.maxValue("depth"), 5.0);
}

TEST(Metrics, NameAndIdUpdatesAreInterchangeable) {
  // The same update sequence, once by name only and once alternating
  // between names and handles, must leave bit-identical registries.
  obs::Metrics byName;
  obs::Metrics mixed;
  obs::Metrics::Id bytes, depth;
  const double deltas[] = {0.1, 1e-17, 3.5, -2.25, 0.3, 7.0, -9.5, 0.2};
  double depthNow = 0.0, depthMax = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double d = deltas[i];
    depthNow += d;
    depthMax = std::max(depthMax, depthNow);
    byName.add("bytes", d);
    byName.gaugeAdd("depth", d);
    byName.gaugeSet("level", d * 3);
    if (i % 2 == 0) {
      mixed.add("bytes", d);
      mixed.gaugeAdd("depth", d);
      mixed.gaugeSet("level", d * 3);
    } else {
      mixed.add(mixed.counter(bytes, "bytes"), d);
      mixed.gaugeAdd(mixed.gauge(depth, "depth"), d);
      mixed.gaugeSet(mixed.gauge("level"), d * 3);
    }
  }
  EXPECT_EQ(snapshot(byName), snapshot(mixed));
  EXPECT_EQ(mixed.value("depth"), depthNow);
  EXPECT_EQ(mixed.maxValue("depth"), depthMax);
  EXPECT_EQ(mixed.maxValue("level"), 21.0);
}

TEST(Metrics, EntriesAreNameSorted) {
  obs::Metrics m;
  for (const char* k : {"pmpi.z", "fabric.link[b]", "a", "fabric.link[a]",
                        "engine", "Z"}) {
    m.add(k);
  }
  std::vector<std::string> names;
  for (const auto& [name, e] : m.entries()) names.push_back(name);
  EXPECT_EQ(m.entries().size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.front(), "Z");
}

TEST(Metrics, KeysAppearOnlyOnceTouched) {
  obs::Metrics m;
  obs::Metrics::Id slot;
  EXPECT_FALSE(slot.valid());
  EXPECT_DOUBLE_EQ(m.value("lazy"), 0.0);  // reading registers nothing
  EXPECT_EQ(m.entries().size(), 0u);
  m.add(m.counter(slot, "lazy"), 4.0);
  ASSERT_TRUE(slot.valid());
  m.add(m.counter(slot, "ignored-once-resolved"), 1.0);
  EXPECT_EQ(snapshot(m),
            (Snapshot{{"lazy", obs::Metrics::Kind::Counter, 5.0, 0.0}}));
}

// The fabric interns only the keys a message touches, and rebinds its
// handle cache when the engine's tracer is swapped.
TEST(Metrics, FabricKeysFollowTrafficAndTracer) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::deepEr(4, 4));
  extoll::Fabric fabric(machine);
  obs::Tracer first;
  first.setMetricsOnly(true);
  engine.setTracer(&first);
  fabric.send(0, 1, 4096.0, [] {});
  engine.run();
  const std::size_t pathLinks = fabric.routeInfo(0, 1).links.size();
  std::size_t linkKeys = 0;
  for (const auto& [name, e] : first.metrics().entries()) {
    linkKeys += name.rfind("fabric.link[", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(linkKeys, 2 * pathLinks);  // .bytes and .busy_sec per path link
  EXPECT_EQ(first.metrics().entries().size(), 2 * pathLinks + 3);
  EXPECT_DOUBLE_EQ(first.metrics().value("fabric.messages"), 1.0);

  obs::Tracer second;
  engine.setTracer(&second);
  fabric.send(0, 1, 100.0, [] {});
  fabric.send(2, 3, 100.0, [] {});
  engine.run();
  EXPECT_DOUBLE_EQ(first.metrics().value("fabric.messages"), 1.0);
  EXPECT_DOUBLE_EQ(second.metrics().value("fabric.messages"), 2.0);
  EXPECT_DOUBLE_EQ(second.metrics().value("fabric.bytes"), 200.0);
  EXPECT_DOUBLE_EQ(first.metrics().value("fabric.bytes"), 4096.0);
}

TEST(Tracer, RowsArePerGroup) {
  obs::Tracer tr;
  const int r0 = tr.row(obs::kGroupRanks, "rank0");
  const int l0 = tr.row(obs::kGroupLinks, "link0");
  const int r1 = tr.row(obs::kGroupRanks, "rank1");
  EXPECT_EQ(r0, 0);
  EXPECT_EQ(l0, 0);  // tids are allocated per group
  EXPECT_EQ(r1, 1);
  EXPECT_NE(tr.json().find("\"rank0\""), std::string::npos);
}

TEST(Tracer, EmitsWellFormedEvents) {
  obs::Tracer tr;
  const int row = tr.row(obs::kGroupRanks, "r");
  tr.span(obs::kGroupRanks, row, "work", "test", SimTime::us(1), SimTime::us(3),
          {{"bytes", 42.0}});
  tr.instant(obs::kGroupRanks, row, "tick", "test", SimTime::ns(1500));
  tr.counter("depth", SimTime::us(2), 7.0);
  const std::string json = tr.json();
  // Timestamps are fixed-point microseconds derived from integer picos.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000000,\"dur\":2.000000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":42"), std::string::npos);
  EXPECT_EQ(tr.eventCount(), 3u);
}

// The guarantee the whole design leans on: attaching a tracer changes no
// simulated outcome, and a re-run of the same scenario produces the same
// bytes (so traces can be diffed across code changes).
TEST(Tracer, XpicRunIsUnperturbedAndReproducible) {
  const xpic::XpicConfig cfg = xpic::XpicConfig::tiny();

  const xpic::Report plain =
      runXpic(xpic::Mode::ClusterBooster, 1, cfg);

  obs::Tracer t1;
  const xpic::Report traced = runXpic(xpic::Mode::ClusterBooster, 1, cfg,
                                      hw::MachineConfig::deepEr(), &t1);
  EXPECT_EQ(plain.wallSec, traced.wallSec);  // bit-identical, not just close
  EXPECT_EQ(plain.fieldEnergy, traced.fieldEnergy);
  EXPECT_EQ(plain.kineticEnergy, traced.kineticEnergy);
  EXPECT_EQ(plain.cgIterations, traced.cgIterations);

  obs::Tracer t2;
  runXpic(xpic::Mode::ClusterBooster, 1, cfg, hw::MachineConfig::deepEr(), &t2);
  EXPECT_GT(t1.eventCount(), 0u);
  EXPECT_EQ(t1.json(), t2.json());

  // One timeline row per rank of both drivers, plus lifecycle + metrics.
  const std::string json = t1.json();
  EXPECT_NE(json.find("\"xpic.booster:j0:r0\""), std::string::npos);
  EXPECT_NE(json.find("\"xpic.cluster:j1:r0\""), std::string::npos);
  EXPECT_NE(json.find("\"sync\""), std::string::npos);
  EXPECT_NE(json.find("\"send.post\""), std::string::npos);
  EXPECT_GT(t1.metrics().value("pmpi.sends.rendezvous"), 0.0);
  EXPECT_GT(t1.metrics().value("fabric.messages"), 0.0);
  EXPECT_GT(t1.metrics().value("engine.events_processed"), 0.0);
}

// Metrics-only mode skips timeline work and nothing else: every world of
// the tiny halo and resilience grids records the same registry, key for
// key and bit for bit, with and without a timeline — and registers no
// timeline row while metrics-only.
TEST(Tracer, MetricsOnlyRecordsTheFullTracersRegistry) {
  for (const char* grid : {"halo-tiny", "resilience-tiny"}) {
    const campaign::Campaign c = campaign::builtinCampaign(grid);
    ASSERT_FALSE(c.scenarios.empty());
    for (const campaign::Scenario& s : c.scenarios) {
      SCOPED_TRACE(s.name);
      campaign::ScenarioContext full;
      campaign::ScenarioContext lean;
      full.seed = lean.seed = campaign::scenarioSeed(c.baseSeed, s.name);
      lean.tracer.setMetricsOnly(true);
      const campaign::Values fullValues = s.run(full);
      const campaign::Values leanValues = s.run(lean);
      EXPECT_EQ(fullValues, leanValues);
      EXPECT_GT(full.tracer.eventCount(), 0u);
      EXPECT_EQ(lean.tracer.eventCount(), 0u);
      EXPECT_EQ(lean.tracer.json().find("thread_name"), std::string::npos);
      EXPECT_GT(lean.tracer.metrics().entries().size(), 0u);
      EXPECT_EQ(snapshot(full.tracer.metrics()), snapshot(lean.tracer.metrics()));
    }
  }
}

}  // namespace
