// Tests for the scenario-campaign runner: deterministic seeding, report
// byte-identity across worker counts (the world-isolation guarantee the
// whole campaign/ layer rests on — run this under CBSIM_SANITIZE=thread to
// let TSan check the pool), per-scenario error capture, and the report
// writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/desc.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "desc/json.hpp"
#include "hw/desc.hpp"
#include "xpic/config.hpp"

namespace {

using namespace cbsim;
using campaign::Campaign;
using campaign::CampaignReport;
using campaign::RunnerOptions;
using campaign::Scenario;
using campaign::ScenarioContext;
using campaign::Values;

TEST(ScenarioSeed, DeterministicAndNameSensitive) {
  const auto a = campaign::scenarioSeed(1, "fig8/C+B/n8");
  EXPECT_EQ(a, campaign::scenarioSeed(1, "fig8/C+B/n8"));
  EXPECT_NE(a, campaign::scenarioSeed(1, "fig8/C+B/n4"));
  EXPECT_NE(a, campaign::scenarioSeed(2, "fig8/C+B/n8"));
}

TEST(Runner, ResultsStayInDefinitionOrderDespiteLptScheduling) {
  Campaign c;
  c.name = "order";
  for (int i = 0; i < 6; ++i) {
    Scenario s;
    s.name = "s" + std::to_string(i);
    s.costHint = i;  // inverted: the runner starts s5 first
    s.run = [i](ScenarioContext&) { return Values{{"i", double(i)}}; };
    c.scenarios.push_back(std::move(s));
  }
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(3));
  ASSERT_EQ(rep.scenarios.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(rep.scenarios[size_t(i)].name, "s" + std::to_string(i));
    EXPECT_EQ(rep.scenarios[size_t(i)].values.at("i"), i);
  }
}

TEST(Runner, DuplicateScenarioNamesRejected) {
  Campaign c;
  c.name = "dup";
  for (int i = 0; i < 2; ++i) {
    c.scenarios.push_back(
        {"same", 1.0, [](ScenarioContext&) { return Values{}; }});
  }
  EXPECT_THROW((void)campaign::runCampaign(c), std::invalid_argument);
}

TEST(Runner, ScenarioErrorsAreCapturedPerScenario) {
  Campaign c;
  c.name = "err";
  c.scenarios.push_back({"bad", 1.0, [](ScenarioContext&) -> Values {
                           throw std::runtime_error("boom");
                         }});
  c.scenarios.push_back(
      {"good", 1.0, [](ScenarioContext&) { return Values{{"ok", 1.0}}; }});
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(2));
  EXPECT_EQ(rep.failedCount(), 1);
  EXPECT_EQ(rep.scenarios[0].error, "boom");
  EXPECT_TRUE(rep.scenarios[0].values.empty());
  EXPECT_TRUE(rep.scenarios[1].error.empty());
  EXPECT_EQ(rep.scenarios[1].values.at("ok"), 1.0);
  // The report stays serializable and names the failure.
  EXPECT_NE(campaign::toJson(rep).find("\"error\": \"boom\""), std::string::npos);
}

// A time step far beyond the CFL limit throws particles out of the ghost
// ring in the first mover sweep.  That used to read and write outside the
// field arrays (SIGSEGV); now every world fails with a named error and the
// campaign reports it per scenario.
TEST(Runner, XpicTimeStepBeyondGhostRingIsANamedScenarioError) {
  campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
      campaign::builtinCampaignText("fig8-tiny"), "fig8-tiny");
  spec.fig8.xpic.dt = 40;
  const CampaignReport rep =
      campaign::runCampaign(campaign::buildCampaign(spec), campaign::withJobs(4));
  ASSERT_EQ(rep.scenarios.size(), 12u);
  EXPECT_EQ(rep.failedCount(), 12);
  for (const auto& s : rep.scenarios) {
    EXPECT_NE(s.error.find("xpic: particle left the ghost ring"),
              std::string::npos)
        << s.name << ": " << s.error;
  }
}

// halo-tiny at 5e6 s of compute per step needs 2e7 simulated seconds, past
// SimTime::max() (about 9.22e6 s).  The clock used to wrap and report a
// negative comm_sec; now each world fails with a named error.
TEST(Runner, SimulatedTimeOverflowIsANamedScenarioError) {
  campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
      campaign::builtinCampaignText("halo-tiny"), "halo-tiny");
  spec.halo.computeSec = 5e6;
  const CampaignReport rep =
      campaign::runCampaign(campaign::buildCampaign(spec), campaign::withJobs(2));
  ASSERT_EQ(rep.scenarios.size(), 2u);
  EXPECT_EQ(rep.failedCount(), 2);
  for (const auto& s : rep.scenarios) {
    EXPECT_NE(s.error.find("simulated time out of range: process '"),
              std::string::npos)
        << s.name << ": " << s.error;
    EXPECT_NE(s.error.find("delay 5e+06 s at t=5e+06 s passes the last "
                           "instant"),
              std::string::npos)
        << s.name << ": " << s.error;
  }
}

// At 1e10 s of compute per step SimTime::seconds saturates at
// SimTime::max(): the error says the delay does not fit instead of naming
// the saturated 9.22e6 s as if the description had asked for it.
TEST(Runner, SaturatedDelayIsReportedBeyondTheRange) {
  campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
      campaign::builtinCampaignText("halo-tiny"), "halo-tiny");
  spec.halo.computeSec = 1e10;
  const CampaignReport rep =
      campaign::runCampaign(campaign::buildCampaign(spec), campaign::withJobs(2));
  ASSERT_EQ(rep.scenarios.size(), 2u);
  EXPECT_EQ(rep.failedCount(), 2);
  for (const auto& s : rep.scenarios) {
    EXPECT_NE(s.error.find("simulated time out of range: process 'halo:j0:r0' "
                           "delay beyond the SimTime range (≥ 9.22e6 s) at "
                           "t=1.4e-06 s"),
              std::string::npos)
        << s.name << ": " << s.error;
    EXPECT_EQ(s.error.find("9.22337e+06"), std::string::npos)
        << s.name << ": " << s.error;
  }
}

TEST(Runner, JobsZeroMeansHardwareConcurrency) {
  Campaign c;
  c.name = "jobs0";
  c.scenarios.push_back(
      {"one", 1.0, [](ScenarioContext&) { return Values{}; }});
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(0));
  EXPECT_GE(rep.jobsUsed, 1);  // clamped to scenario count
}

TEST(Runner, MetricsSnapshotCarriesPerWorldRegistries) {
  campaign::Fig8Params p;
  p.xpic = xpic::XpicConfig::tiny();
  p.nodeCounts = {1};
  const CampaignReport rep = campaign::runCampaign(fig8Campaign(p));
  ASSERT_EQ(rep.scenarios.size(), 3u);
  for (const auto& s : rep.scenarios) {
    ASSERT_TRUE(s.error.empty()) << s.name << ": " << s.error;
    // Every world carries its own engine counter and rank gauges (rank
    // metric names vary by mode: xpic vs xpic.cluster/xpic.booster jobs).
    EXPECT_GT(s.metrics.at("engine.events_processed"), 0) << s.name;
    const bool hasCompute = std::any_of(
        s.metrics.begin(), s.metrics.end(), [](const auto& kv) {
          return kv.first.find(".compute_sec") != std::string::npos &&
                 kv.second > 0;
        });
    EXPECT_TRUE(hasCompute) << s.name;
  }
  // Isolated worlds of the same size do the same amount of work.
  EXPECT_EQ(rep.scenarios[0].metrics.at("engine.events_processed"),
            rep.scenarios[1].metrics.at("engine.events_processed"));
}

// Parallel efficiency is relative to the first sweep point n0,
// (n0 * T(n0)) / (n * T(n)): a sweep starting at two nodes reports 1 there.
TEST(Runner, Fig8EfficiencyIsRelativeToTheFirstSweepPoint) {
  campaign::Fig8Params p;
  p.xpic = xpic::XpicConfig::tiny();
  p.nodeCounts = {2, 4};
  const CampaignReport rep =
      campaign::runCampaign(fig8Campaign(p), campaign::withJobs(2));
  ASSERT_EQ(rep.failedCount(), 0);
  const auto wall = [&](const std::string& mode, int n) {
    for (const auto& s : rep.scenarios) {
      if (s.name == "fig8/" + mode + "/n" + std::to_string(n)) {
        return s.values.at("wall_sec");
      }
    }
    ADD_FAILURE() << mode << " n" << n << " missing";
    return 0.0;
  };
  for (const std::string mode : {"Cluster", "Booster", "C+B"}) {
    EXPECT_EQ(rep.derived.at("efficiency/" + mode + "/n2"), 1.0) << mode;
    EXPECT_DOUBLE_EQ(rep.derived.at("efficiency/" + mode + "/n4"),
                     2 * wall(mode, 2) / (4 * wall(mode, 4)))
        << mode;
  }
}

// Below 6 interface doubles per cell the C+B exchange still sends its
// packed arrays, 5 moments one way and 6 fields the other, so the exchange
// share stays positive at no padding.
TEST(Runner, Fig8ExchangeShareCountsThePackedArrays) {
  campaign::Fig8Params p;
  p.xpic = xpic::XpicConfig::tiny();
  p.xpic.interfaceDoublesPerCell = 0;
  p.nodeCounts = {1};
  const CampaignReport rep =
      campaign::runCampaign(fig8Campaign(p), campaign::withJobs(2));
  ASSERT_EQ(rep.failedCount(), 0);
  const auto cb = std::find_if(
      rep.scenarios.begin(), rep.scenarios.end(),
      [](const auto& s) { return s.name == "fig8/C+B/n1"; });
  ASSERT_NE(cb, rep.scenarios.end());
  EXPECT_DOUBLE_EQ(rep.derived.at("ratio/intermodule_exchange_share"),
                   p.xpic.steps * p.xpic.cells() * (5 + 6) * 8.0 / 10e9 /
                       cb->values.at("wall_sec"));
}

// The headline guarantee: running the same campaign on 1 worker and on 8
// produces byte-identical JSON and CSV reports.  This is simultaneously
// the engine-isolation audit — 8 workers means up to 8 fully independent
// sim::Engine / pmpi::Runtime worlds (each with many rank threads) running
// concurrently; any shared mutable state would show up as a diff here (or
// as a TSan report under CBSIM_SANITIZE=thread).
TEST(Determinism, Fig8TinyReportIdenticalAcrossJobCounts) {
  for (const char* name : {"fig8-tiny", "fig3"}) {
    const Campaign c = campaign::builtinCampaign(name);
    const CampaignReport r1 = campaign::runCampaign(c, campaign::withJobs(1));
    const CampaignReport r8 = campaign::runCampaign(c, campaign::withJobs(8));
    EXPECT_EQ(campaign::toJson(r1), campaign::toJson(r8)) << name;
    EXPECT_EQ(campaign::toCsv(r1), campaign::toCsv(r8)) << name;
    EXPECT_EQ(r8.jobsUsed, 8) << name;
    EXPECT_EQ(r1.failedCount(), 0) << name;
  }
}

TEST(Determinism, ResilienceReportIdenticalAcrossJobCounts) {
  // Reduced matrix: failure injection, restarts and RNG sampling all
  // inside per-scenario worlds, so worker count must not matter.
  campaign::ResilienceParams p;
  p.mtbfSec = {0.25, 1.0};
  p.steps = 10;
  p.maxAttempts = 20;
  const Campaign c = campaign::resilienceCampaign(p);
  const CampaignReport r1 = campaign::runCampaign(c, campaign::withJobs(1));
  const CampaignReport r6 = campaign::runCampaign(c, campaign::withJobs(6));
  EXPECT_EQ(campaign::toJson(r1), campaign::toJson(r6));
  EXPECT_EQ(campaign::toCsv(r1), campaign::toCsv(r6));
  for (const auto& s : r1.scenarios) {
    EXPECT_TRUE(s.error.empty()) << s.name << ": " << s.error;
    EXPECT_EQ(s.values.at("done"), 1.0) << s.name;
  }
}

TEST(Resilience, FaultPlanCrashesAreInjected) {
  // A fault_plan's node crashes fire beside the MTBF-driven failures.  With
  // the MTBF far beyond the run and no pinned first failure, the plan's one
  // crash is the only failure, and the supervisor relaunches after it.
  campaign::ResilienceParams p;
  p.mtbfSec = {1000};
  p.schemes.resize(1);
  p.ranks = 3;
  p.steps = 12;
  p.firstFailureAtSec = 0;
  p.faultPlan.emplace();
  p.faultPlan->crashNode(0, sim::SimTime::ms(50), sim::SimTime::ms(20));
  const CampaignReport r =
      campaign::runCampaign(campaign::resilienceCampaign(p));
  ASSERT_EQ(r.scenarios.size(), 1u);
  ASSERT_TRUE(r.scenarios[0].error.empty()) << r.scenarios[0].error;
  const auto& v = r.scenarios[0].values;
  EXPECT_GE(v.at("failures_injected"), 1.0);
  EXPECT_GE(v.at("attempts"), 2.0);
  EXPECT_EQ(v.at("done"), 1.0);
  // A crash of a node the machine lacks is a description error.
  p.faultPlan->crashNode(99, sim::SimTime::ms(50), sim::SimTime::ms(20));
  EXPECT_THROW((void)campaign::resilienceCampaign(p), std::invalid_argument);
}

TEST(Runner, BatchedDispatchCoversEveryScenarioExactlyOnce) {
  // Many tiny scenarios with mixed (including zero) cost hints: the
  // cost-aware batching must still execute each exactly once and merge
  // the per-worker buffers back into definition order.
  Campaign c;
  c.name = "batch";
  for (int i = 0; i < 41; ++i) {
    Scenario s;
    s.name = "s" + std::to_string(i);
    s.costHint = (i % 7 == 0) ? 0.0 : static_cast<double>(i % 5);
    s.run = [i](ScenarioContext&) { return Values{{"i", double(i)}}; };
    c.scenarios.push_back(std::move(s));
  }
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(5));
  ASSERT_EQ(rep.scenarios.size(), 41u);
  for (int i = 0; i < 41; ++i) {
    EXPECT_EQ(rep.scenarios[size_t(i)].name, "s" + std::to_string(i));
    EXPECT_EQ(rep.scenarios[size_t(i)].values.at("i"), i);
  }
  EXPECT_EQ(rep.failedCount(), 0);
}

TEST(Runner, TraceFileCollisionsAreDisambiguated) {
  namespace fs = std::filesystem;
  // "a/b" and "a_b" sanitize to the same stem; "c" does not collide.
  Campaign c;
  c.name = "tracecol";
  for (const char* name : {"a/b", "a_b", "c"}) {
    Scenario s;
    s.name = name;
    s.run = [](ScenarioContext&) { return Values{{"x", 1.0}}; };
    c.scenarios.push_back(std::move(s));
  }
  const fs::path dir = fs::path(testing::TempDir()) / "cbsim-tracecol";
  fs::remove_all(dir);
  RunnerOptions opts;
  opts.jobs = 2;
  opts.traceDir = dir.string();
  const CampaignReport rep = campaign::runCampaign(c, opts);
  EXPECT_EQ(rep.failedCount(), 0);
  EXPECT_EQ(rep.traceWarningCount(), 0);
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    files.push_back(e.path().filename().string());
  }
  // One trace per scenario — the colliding pair got distinct hash-suffixed
  // names instead of silently overwriting one file.
  EXPECT_EQ(files.size(), 3u);
  EXPECT_NE(std::find(files.begin(), files.end(), "c.trace.json"),
            files.end());
  // The bare collided stem must not be used by either collider.
  EXPECT_EQ(std::find(files.begin(), files.end(), "a_b.trace.json"),
            files.end());
  fs::remove_all(dir);
}

TEST(Runner, TraceWriteFailureKeepsScenarioResults) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "cbsim-tracewarn";
  fs::remove_all(dir);
  // A directory squatting on the scenario's trace-file name makes the
  // post-run ofstream open fail — the completed results must survive.
  fs::create_directories(dir / "x.trace.json");
  Campaign c;
  c.name = "tracewarn";
  c.scenarios.push_back(
      {"x", 1.0, [](ScenarioContext&) { return Values{{"ok", 7.0}}; }});
  RunnerOptions opts;
  opts.traceDir = dir.string();
  const CampaignReport rep = campaign::runCampaign(c, opts);
  ASSERT_EQ(rep.scenarios.size(), 1u);
  EXPECT_TRUE(rep.scenarios[0].error.empty());
  EXPECT_EQ(rep.scenarios[0].values.at("ok"), 7.0);
  EXPECT_FALSE(rep.scenarios[0].traceWarning.empty());
  EXPECT_EQ(rep.failedCount(), 0);
  EXPECT_EQ(rep.traceWarningCount(), 1);
  fs::remove_all(dir);
}

// ---- Presets ---------------------------------------------------------------

// Concurrent first use: many threads racing to read the same presets must
// agree on the result.  Run under CBSIM_SANITIZE=thread to let TSan audit
// the one-time parse of the preset tables.
TEST(CampaignPresets, ConcurrentFirstUseAgrees) {
  constexpr int kThreads = 8;
  std::vector<std::string> dumps(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&dumps, i] {
      const hw::MachineConfig m = hw::machinePreset("deep-er");
      (void)hw::cpuPreset("xeon-phi-knl");
      dumps[size_t(i)] = desc::dump(hw::toDesc(m));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(dumps[size_t(i)], dumps[0]);
}

TEST(Report, JsonEscapesAndStructure) {
  CampaignReport rep;
  rep.campaign = "quoted \"name\"";
  rep.description = "line1\nline2";
  campaign::ScenarioResult s;
  s.name = "s,with\"csv";
  s.seed = 42;
  s.values["v"] = 0.5;
  rep.scenarios.push_back(s);
  const std::string json = campaign::toJson(rep);
  EXPECT_NE(json.find("quoted \\\"name\\\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  const std::string csv = campaign::toCsv(rep);
  // CSV quoting doubles embedded quotes.
  EXPECT_NE(csv.find("\"s,with\"\"csv\""), std::string::npos);
}

}  // namespace
