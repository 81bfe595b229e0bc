// Tests for the chaos fuzzer (src/chaos): seed-deterministic fault-plan
// generation, normalization, storm correlation, description round-trips,
// the fault-space property tests (trunk outage reroutes over a bridge vs
// partitions an unbridged fabric; node crashes during in-flight reliable
// transfers leave exactly-once intact), the fuzz loop on the seeded
// transport defect, shrinker idempotence, artifact replay, the artifact's
// hand-off to mc exploration and the committed example profiles.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/fuzz.hpp"
#include "chaos/generate.hpp"
#include "chaos/profile.hpp"
#include "chaos/shrink.hpp"
#include "chaos/trial.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "fault/desc.hpp"
#include "hw/machine.hpp"
#include "mc/desc.hpp"
#include "mc/scenarios.hpp"

namespace {

using namespace cbsim;

using sim::SimTime;

std::string dumped(const fault::FaultPlan& p) {
  return desc::dump(fault::toDesc(p));
}

fault::FaultPlan reparsed(const fault::FaultPlan& p) {
  const desc::Value v = desc::parse(dumped(p), "inline");
  desc::Reader r(v, "fault");
  return fault::faultPlanFromDesc(r);
}

/// A bandwidth window over [fromMs, untilMs) milliseconds.
fault::Fault window(fault::Kind kind, int target, int fromMs, int untilMs,
                    double factor) {
  return {.kind = kind,
          .target = target,
          .from = SimTime::ms(fromMs),
          .until = SimTime::ms(untilMs),
          .bwFactor = factor};
}

/// The reliable transport (message-race family) under a mixed
/// endpoint/trunk/switch/storm profile with moderate packet loss, 100
/// trials: the same fuzzing target as examples/chaos/transport-storm.json.
chaos::ChaosSpec defaultChaosSpec() {
  chaos::ChaosSpec spec;
  spec.name = "chaos";
  spec.seed = 7;
  spec.trials = 100;
  spec.scenario.name = "transport-under-chaos";
  spec.scenario.family = "message-race";
  spec.scenario.drainSec = 2.0;
  spec.scenario.senders = 3;
  spec.scenario.messages = 4;
  spec.scenario.recvWorkUs = 5;
  spec.profile.horizonSec = 0.01;
  spec.profile.endpointRateHz = 150;
  spec.profile.trunkRateHz = 50;
  spec.profile.switchRateHz = 30;
  spec.profile.stormRateHz = 30;
  spec.profile.windowMinSec = 0.0005;
  spec.profile.windowMaxSec = 0.003;
  spec.profile.downWeight = 0.6;
  spec.profile.stormSpanSec = 0.002;
  spec.profile.dropProbMax = 0.05;
  spec.profile.corruptProbMax = 0.02;
  return spec;
}

/// Every fault class has eligible targets on this machine: two switches
/// joined by one trunk, Cluster nodes on both sides (the message-race
/// ranks land on Cluster nodes, so traffic crosses the trunk), the
/// deep-er NAMs, and optionally a gen-1 style dual-homed bridge node.
hw::MachineConfig twoSwitchWorld(bool bridged) {
  hw::MachineConfig cfg = hw::MachineConfig::deepEr(2, 0);
  cfg.switches.push_back({"cluster-extoll-b", cfg.switches[0].net});
  cfg.trunks.push_back({0, 1, 12.5, sim::SimTime::ns(150)});
  hw::NodeGroupSpec far = cfg.groups[0];
  far.namePrefix = "dn";
  far.switchId = 1;
  cfg.groups.push_back(far);
  if (bridged) {
    hw::NodeGroupSpec br;
    br.kind = hw::NodeKind::Bridge;
    br.count = 1;
    br.namePrefix = "bi";
    br.cpu = hw::MachineConfig::xeonHaswell();
    br.switchId = 0;
    br.mpiSwOverhead = sim::SimTime::ns(400);
    cfg.groups.push_back(br);
  }
  return cfg;
}

chaos::ChaosProfile richProfile() {
  chaos::ChaosProfile p;
  p.horizonSec = 0.05;
  p.endpointRateHz = 200;
  p.trunkRateHz = 120;
  p.switchRateHz = 80;
  p.namRateHz = 80;
  p.crashRateHz = 60;
  p.stormRateHz = 60;
  p.windowMinSec = 0.0005;
  p.windowMaxSec = 0.004;
  p.stormSpanSec = 0.002;
  p.dropProbMax = 0.05;
  p.corruptProbMax = 0.02;
  return p;
}

mc::McScenario raceScenario() {
  mc::McScenario s;
  s.name = "chaos-prop";
  s.family = "message-race";
  s.senders = 3;
  s.messages = 2;
  s.recvWorkUs = 5;
  s.drainSec = 1.0;
  return s;
}

// ---- Generator -----------------------------------------------------------------------

TEST(Generate, SameSeedSameSchedule) {
  const hw::MachineConfig m = twoSwitchWorld(true);
  const chaos::ChaosProfile p = richProfile();
  const fault::FaultPlan a = chaos::generatePlan(p, m, 12345);
  const fault::FaultPlan b = chaos::generatePlan(p, m, 12345);
  EXPECT_EQ(dumped(a), dumped(b));
  EXPECT_TRUE(a.active());
}

TEST(Generate, DifferentSeedsDifferentSchedules) {
  const hw::MachineConfig m = twoSwitchWorld(true);
  const chaos::ChaosProfile p = richProfile();
  const fault::FaultPlan a = chaos::generatePlan(p, m, 1);
  const fault::FaultPlan b = chaos::generatePlan(p, m, 2);
  EXPECT_NE(dumped(a), dumped(b));
}

TEST(Generate, SchedulesCompileToValidPlansAcrossSeeds) {
  // The generator's normalization promise: every sampled plan — storms,
  // overlaps and all — is one that validateFor accepts.
  const hw::MachineConfig m = twoSwitchWorld(true);
  const chaos::ChaosProfile p = richProfile();
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    EXPECT_EQ(chaos::generatePlan(p, m, seed).validateFor(m), "")
        << "seed " << seed;
  }
}

TEST(Generate, StormsShareIdsAndCrashVictimsAreDistinct) {
  const hw::MachineConfig m = twoSwitchWorld(true);
  chaos::ChaosProfile p;
  p.horizonSec = 0.05;
  p.stormRateHz = 400;
  p.windowMinSec = 0.0005;
  p.windowMaxSec = 0.004;
  p.stormSpanSec = 0.002;
  bool sawBurst = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const fault::FaultPlan s = chaos::generatePlan(p, m, seed);
    std::map<int, int> members;
    std::map<int, std::set<int>> crashVictims;
    for (const fault::Fault& e : s.faults()) {
      EXPECT_GE(e.storm, 0);  // storm-only profile: nothing arrives alone
      ++members[e.storm];
      if (e.kind == fault::Kind::Crash) {
        // Sampling without replacement: one burst never crashes the same
        // node twice.
        EXPECT_TRUE(crashVictims[e.storm].insert(e.target).second)
            << "seed " << seed << " storm " << e.storm;
      }
    }
    for (const auto& [id, n] : members) sawBurst = sawBurst || n >= 2;
  }
  EXPECT_TRUE(sawBurst);
}

TEST(Generate, RejectsFilterTargetsOffTheMachine) {
  chaos::ChaosProfile p = richProfile();
  p.trunkTargets = {7};  // the two-switch world has exactly one trunk
  EXPECT_THROW(chaos::generatePlan(p, twoSwitchWorld(true), 1),
               std::invalid_argument);
}

TEST(Profile, ValidateNamesBadFields) {
  chaos::ChaosProfile p = richProfile();
  p.windowMinSec = 0.01;
  p.windowMaxSec = 0.002;
  EXPECT_NE(p.validate(), "");
  EXPECT_EQ(richProfile().validate(), "");
}

// ---- Normalization -------------------------------------------------------------------

TEST(Schedule, NormalizeDropsWindowsBuriedInOutages) {
  const fault::FaultPlan s =
      chaos::normalized({}, {window(fault::Kind::Trunk, 0, 10, 30, 0.0),
                             window(fault::Kind::Trunk, 0, 15, 20, 0.5)});
  ASSERT_EQ(s.faults().size(), 1u);
  EXPECT_EQ(s.faults()[0].bwFactor, 0.0);
  EXPECT_EQ(s.validateFor(twoSwitchWorld(true)), "");
  // validateFor flags exactly what normalization drops: the same predicate.
  fault::FaultPlan raw;
  raw.add(window(fault::Kind::Trunk, 0, 10, 30, 0.0));
  raw.add(window(fault::Kind::Trunk, 0, 15, 20, 0.5));
  EXPECT_NE(raw.validateFor(twoSwitchWorld(true)).find("trunk 0: "),
            std::string::npos);
}

TEST(Schedule, NormalizeSortsDeterministically) {
  const std::vector<fault::Fault> faults = {
      window(fault::Kind::Switch, 1, 20, 30, 0.0),
      window(fault::Kind::Endpoint, 2, 10, 20, 0.5),
      window(fault::Kind::Endpoint, 0, 10, 20, 0.5)};
  const fault::FaultPlan s = chaos::normalized({}, faults);
  const fault::FaultPlan t =
      chaos::normalized({}, {faults[2], faults[0], faults[1]});
  EXPECT_EQ(dumped(s), dumped(t));
  EXPECT_EQ(s.faults()[0].from, SimTime::ms(10));
  EXPECT_EQ(s.faults()[0].target, 0);
  EXPECT_EQ(s.faults()[2].kind, fault::Kind::Switch);
}

// ---- Description round-trips ---------------------------------------------------------

TEST(Desc, ScheduleRoundTripsThroughDesc) {
  // A generated plan, storm tags included, survives the fault binding.
  const fault::FaultPlan s =
      chaos::generatePlan(richProfile(), twoSwitchWorld(true), 99);
  EXPECT_NE(dumped(s).find("\"storm\""), std::string::npos);
  EXPECT_EQ(dumped(reparsed(s)), dumped(s));
}

TEST(Desc, SpecDumpIsCanonical) {
  const chaos::ChaosSpec spec = defaultChaosSpec();
  const std::string text = chaos::dumpSpec(spec);
  EXPECT_EQ(chaos::dumpSpec(chaos::chaosSpecFromDescText(text, "inline")),
            text);
}

TEST(Desc, ScenarioFaultIsRejected) {
  // Every trial installs the plan it generates, so a plan in the spec's
  // scenario could only be dropped silently.
  const char* text = R"({"chaos": {
    "scenario": {
      "family": "message-race",
      "fault": {"endpoint_windows": [
        {"endpoint": 0, "from_sec": 0, "until_sec": 100, "bw_factor": 0}]}
    },
    "profile": {}
  }})";
  try {
    (void)chaos::chaosSpecFromDescText(text, "spec");
    ADD_FAILURE() << "a scenario fault plan was accepted";
  } catch (const desc::SchemaError& e) {
    EXPECT_NE(std::string(e.what()).find("spec.chaos.scenario.fault: "),
              std::string::npos)
        << e.what();
  }
}

TEST(Desc, BreakDedupIsNeverSerialized) {
  chaos::ChaosSpec spec = defaultChaosSpec();
  spec.scenario.breakDedup = true;
  const chaos::ChaosSpec back =
      chaos::chaosSpecFromDescText(chaos::dumpSpec(spec), "inline");
  EXPECT_FALSE(back.scenario.breakDedup);
}

TEST(Desc, ExampleProfilesParseValidateAndGenerate) {
  for (const char* file : {"transport-storm.json", "recovery-loop.json"}) {
    const std::string path =
        std::string(CBSIM_CHAOS_EXAMPLES_DIR) + "/" + file;
    const chaos::ChaosSpec spec =
        chaos::chaosSpecFromDescText(desc::readFile(path), path);
    EXPECT_EQ(spec.profile.validate(), "") << file;
    EXPECT_NO_THROW((void)mc::makeRun(spec.scenario)) << file;
    const hw::MachineConfig m = mc::scenarioWorld(spec.scenario);
    const fault::FaultPlan s =
        chaos::generatePlan(spec.profile, m, chaos::trialSeed(spec, 0));
    EXPECT_EQ(s.validateFor(m), "") << file;
    // Canonical-dump round trip, same contract as the builtin campaigns.
    const std::string text = chaos::dumpSpec(spec);
    EXPECT_EQ(chaos::dumpSpec(chaos::chaosSpecFromDescText(text, path)),
              text)
        << file;
  }
}

// ---- Fault-space properties ----------------------------------------------------------

TEST(ChaosProperty, TrunkOutageDetoursOverBridgeInvariantsHold) {
  // A dead trunk on a bridged fabric is a detour, not a partition: the
  // reliable transport's invariants must hold end to end.
  mc::McScenario s = raceScenario();
  s.machine = twoSwitchWorld(true);
  fault::FaultPlan outage;
  outage.add(window(fault::Kind::Trunk, 0, 0, 1000000, 0.0));
  EXPECT_EQ(chaos::runTrial(s, outage), "");
}

TEST(ChaosProperty, TrunkOutagePartitionsUnbridgedFabric) {
  // The same outage without a bridge strands the cross-switch senders.
  // Once the retransmit budget runs out (~150ms of capped backoff) the
  // transport declares the peer unreachable and tears the job down, which
  // the harness counts as a clean end — so the partition is observed
  // through the drain bound: tighten it below the teardown horizon and
  // the stalled ranks must surface as a drain-bound violation.
  mc::McScenario s = raceScenario();
  s.drainSec = 0.05;
  s.machine = twoSwitchWorld(false);
  fault::FaultPlan outage;
  outage.add(window(fault::Kind::Trunk, 0, 0, 1000000, 0.0));
  const std::string v = chaos::runTrial(s, outage);
  EXPECT_NE(v, "");
  EXPECT_NE(v.find("violation"), std::string::npos) << v;
}

TEST(ChaosProperty, TrunkFlapWithinDrainRecoversByRetransmit) {
  // A *transient* outage on the unbridged fabric is recoverable: the
  // retransmit path redelivers once the trunk is back, and exactly-once /
  // in-order still hold at drain.
  mc::McScenario s = raceScenario();
  s.machine = twoSwitchWorld(false);
  fault::FaultPlan flap;
  flap.add(window(fault::Kind::Trunk, 0, 0, 5, 0.0));
  EXPECT_EQ(chaos::runTrial(s, flap), "");
}

TEST(ChaosProperty, NodeCrashDuringTransferKeepsExactlyOnce) {
  // Crash a sender node while its messages are in flight.  The killed job
  // ends the trial cleanly; the invariants are conditional on delivery —
  // whatever did arrive must still be exactly-once and in order.
  mc::McScenario s = raceScenario();
  fault::FaultPlan crash;
  crash.crashNode(1, SimTime::us(500), SimTime::ms(10));
  EXPECT_EQ(chaos::runTrial(s, crash), "");
}

TEST(ChaosProperty, NodeCrashDuringCheckpointRestartStillRecovers) {
  // The recovery loop already absorbs its own scheduled failure; an extra
  // chaos crash with spares available must still end in a completed run
  // with a bit-equal restore.
  mc::McScenario s;
  s.family = "checkpoint-restart";
  s.name = "recovery-prop";
  s.ranks = 2;
  s.steps = 6;
  s.spareNodes = 2;
  s.maxAttempts = 12;
  s.drainSec = 5.0;
  fault::FaultPlan crash;
  crash.crashNode(1, SimTime::ms(15), SimTime::ms(50));
  EXPECT_EQ(chaos::runTrial(s, crash), "");
}

// ---- Fuzz loop and shrinker ----------------------------------------------------------

/// The default spec fuzzed with the seeded transport defect, found and
/// shrunk once for every test that inspects the result.
const chaos::FuzzResult& seededDefect() {
  static const chaos::FuzzResult r = [] {
    chaos::ChaosSpec spec = defaultChaosSpec();
    spec.scenario.breakDedup = true;
    return chaos::fuzz(spec);
  }();
  return r;
}

TEST(Fuzz, TrialSeedsFollowTheGoldenRatioStride) {
  const chaos::ChaosSpec spec = defaultChaosSpec();
  EXPECT_EQ(chaos::trialSeed(spec, 0), spec.seed);
  EXPECT_EQ(chaos::trialSeed(spec, 1) - chaos::trialSeed(spec, 0),
            0x9e3779b97f4a7c15ull);
}

TEST(Fuzz, UnmodifiedTransportSurvivesTheDefaultCorpus) {
  const chaos::ChaosSpec spec = defaultChaosSpec();
  chaos::FuzzOptions opt;
  opt.shrink = false;
  const chaos::FuzzResult r = chaos::fuzz(spec, opt);
  EXPECT_FALSE(r.violation) << r.message;
  EXPECT_EQ(r.trialsRun, spec.trials);
}

TEST(Fuzz, FindsShrinksAndReplaysTheSeededDefect) {
  chaos::ChaosSpec spec = defaultChaosSpec();
  spec.scenario.breakDedup = true;
  const chaos::FuzzResult& r = seededDefect();
  ASSERT_TRUE(r.violation);
  EXPECT_EQ(chaos::trialSeed(spec, r.badTrial), r.badSeed);
  EXPECT_NE(r.message, "");
  EXPECT_NE(r.shrunkMessage, "");
  // The acceptance bar: the counterexample shrinks to at most 3 faults.
  EXPECT_LE(r.shrunk.faults().size(), 3u);
  EXPECT_FALSE(r.shrinkBudgetExhausted);

  // Shrinker idempotence: re-shrinking the minimal plan is a no-op.
  const chaos::ShrinkResult again = chaos::shrinkPlan(spec.scenario, r.shrunk);
  EXPECT_EQ(dumped(again.plan), dumped(r.shrunk));
  EXPECT_EQ(again.violation, r.shrunkMessage);

  // The artifact round-trips canonically and replays to the same message
  // (breakDedup is not serialized, so it is restored by hand — the replay
  // contract the CLI's --break-dedup flag implements).
  const chaos::Artifact a = chaos::makeArtifact(spec, r);
  const std::string text = chaos::dumpArtifact(a);
  chaos::Artifact back =
      chaos::artifactFromDoc(desc::parse(text, "inline"), "inline");
  EXPECT_EQ(chaos::dumpArtifact(back), text);
  EXPECT_FALSE(back.scenario.breakDedup);
  EXPECT_EQ(chaos::replayArtifact(back), "");  // clean transport: no repro
  back.scenario.breakDedup = true;
  EXPECT_EQ(chaos::replayArtifact(back), r.shrunkMessage);
}

TEST(Fuzz, ArtifactScenarioExploresUnderMc) {
  // The hand-off: an artifact's scenario, wrapped as {"explore": ...}, is an
  // mc scenario whose fault plan is the shrunk counterexample, so the
  // explorer finds the defect in it and nothing without the defect.
  chaos::ChaosSpec spec = defaultChaosSpec();
  const chaos::FuzzResult& r = seededDefect();
  ASSERT_TRUE(r.violation);
  const desc::Value artifact = desc::parse(
      chaos::dumpArtifact(chaos::makeArtifact(spec, r)), "artifact");
  desc::Value doc = desc::Value::object();
  doc.set("explore", *artifact.find("chaos_artifact")->find("scenario"));
  mc::McScenario s = mc::scenarioFromDoc(doc, "artifact");
  s.budget.maxSchedules = 50;
  EXPECT_FALSE(mc::exploreScenario(s).violation);
  s.breakDedup = true;
  EXPECT_TRUE(mc::exploreScenario(s).violation);
}

TEST(Shrink, RefusesACleanSchedule) {
  const mc::McScenario s = raceScenario();
  EXPECT_THROW((void)chaos::shrinkPlan(s, fault::FaultPlan{}),
               std::invalid_argument);
}

}  // namespace
