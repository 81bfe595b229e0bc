// Tests for the schedule-exploration model checker (src/mc): the chooser
// contract, DFS enumeration and sleep-set pruning on synthetic runs, the
// canonical-hash independence relation, trace round-trips, the committed
// exploration corpus with pinned schedule counts, the seeded transport
// defect (found, trace-replayed, absent from the unmodified build), and
// the DeterministicChooser byte-identity regression over the campaign
// layer.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "desc/json.hpp"
#include "fault/plan.hpp"
#include "mc/choice.hpp"
#include "mc/desc.hpp"
#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"
#include "mc/trace.hpp"
#include "sim/process.hpp"

namespace {

using namespace cbsim;
using mc::ChoicePoint;
using mc::Decision;
using mc::Site;

constexpr std::array<std::uint64_t, 2> kTwoKeys = {0, 1};

Decision mkDecision(Site site, std::uint64_t locus, int chosen, int alts,
                    std::uint64_t key) {
  Decision d;
  d.site = site;
  d.locus = locus;
  d.chosen = chosen;
  d.alternatives = alts;
  d.key = key;
  return d;
}

// ---- Chooser contract ----------------------------------------------------------------

TEST(Chooser, DeterministicChooserAlwaysPicksFirst) {
  mc::DeterministicChooser c;
  EXPECT_EQ(c.choose({Site::PmpiMatch, 3, kTwoKeys}), 0);
  EXPECT_EQ(c.choose({Site::Retransmit, 0x100000002ull, kTwoKeys}), 0);
  EXPECT_EQ(c.choose({Site::FaultInstant, 1, kTwoKeys}), 0);
}

TEST(Chooser, RecordingChooserFollowsForcedPrefixThenDefaults) {
  mc::RecordingChooser c({1, 0});
  EXPECT_EQ(c.choose({Site::PmpiMatch, 1, kTwoKeys}), 1);
  EXPECT_EQ(c.choose({Site::PmpiMatch, 2, kTwoKeys}), 0);
  EXPECT_EQ(c.choose({Site::PmpiMatch, 3, kTwoKeys}), 0);  // past the prefix
  ASSERT_EQ(c.trace().size(), 3u);
  EXPECT_EQ(c.trace()[0].chosen, 1);
  EXPECT_EQ(c.trace()[0].key, 1u);
  EXPECT_EQ(c.trace()[2].chosen, 0);
  EXPECT_FALSE(c.diverged());
}

TEST(Chooser, RecordingChooserFlagsDivergence) {
  // A forced index beyond the alternatives means the run no longer takes
  // the recorded shape (code drift): fall back to 0 but say so.
  mc::RecordingChooser c({5});
  EXPECT_EQ(c.choose({Site::PmpiMatch, 1, kTwoKeys}), 0);
  EXPECT_TRUE(c.diverged());
}

// ---- Explorer on synthetic runs ------------------------------------------------------

TEST(Explorer, EnumeratesAllScheduleCombinations) {
  // Two binary decisions at dependent loci (same proc): 4 schedules, no
  // two equivalent.
  std::vector<std::vector<int>> seen;
  const mc::RunFn run = [&](mc::Chooser& c) -> std::string {
    const int a = c.choose({Site::PmpiMatch, 7, kTwoKeys});
    const int b = c.choose({Site::PmpiMatch, 7, kTwoKeys});
    seen.push_back({a, b});
    return "";
  };
  mc::ExploreOptions opt;
  opt.sleepSets = false;
  const mc::ExploreResult res = mc::explore(run, opt);
  EXPECT_FALSE(res.violation);
  EXPECT_EQ(res.schedulesRun, 4);
  EXPECT_TRUE(res.complete());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::vector<int>>{
                      {0, 0}, {0, 1}, {1, 0}, {1, 1}}));
}

TEST(Explorer, FindsViolationAndReplaysIt) {
  const mc::RunFn run = [](mc::Chooser& c) -> std::string {
    const int a = c.choose({Site::PmpiMatch, 1, kTwoKeys});
    const int b = c.choose({Site::PmpiMatch, 2, kTwoKeys});
    return (a == 1 && b == 1) ? "boom" : "";
  };
  const mc::ExploreResult res = mc::explore(run, {});
  ASSERT_TRUE(res.violation);
  EXPECT_EQ(res.message, "boom");
  EXPECT_EQ(res.badSchedule, (std::vector<int>{1, 1}));
  // The trace is a complete, self-sufficient repro.
  EXPECT_EQ(mc::replay(run, res.badSchedule), "boom");
  EXPECT_EQ(mc::replay(run, {0, 1}), "");
}

TEST(Explorer, RespectsScheduleBudget) {
  const mc::RunFn run = [](mc::Chooser& c) -> std::string {
    for (int i = 0; i < 6; ++i) c.choose({Site::PmpiMatch, 9, kTwoKeys});
    return "";
  };
  mc::ExploreOptions opt;
  opt.maxSchedules = 10;
  opt.sleepSets = false;
  const mc::ExploreResult res = mc::explore(run, opt);
  EXPECT_EQ(res.schedulesRun, 10);
  EXPECT_FALSE(res.complete());
  EXPECT_GT(res.deferredBranches, 0);
}

TEST(Explorer, SleepSetsCollapseRetransmitJitter) {
  // One retransmit choice (pure timing jitter, masked in the canonical
  // hash) followed by one dependent match choice: exhaustively 4
  // schedules, but the jittered replica of the root is recognized as
  // equivalent and its subtree is never expanded.
  const mc::RunFn run = [](mc::Chooser& c) -> std::string {
    c.choose({Site::Retransmit, 0x100000002ull, kTwoKeys});
    c.choose({Site::PmpiMatch, 5, kTwoKeys});
    return "";
  };
  mc::ExploreOptions exhaustive;
  exhaustive.sleepSets = false;
  EXPECT_EQ(mc::explore(run, exhaustive).schedulesRun, 4);

  const mc::ExploreResult pruned = mc::explore(run, {});
  EXPECT_EQ(pruned.schedulesRun, 3);
  EXPECT_EQ(pruned.equivalentPruned, 1);
  EXPECT_TRUE(pruned.complete());
}

// ---- Independence relation and canonical hash ----------------------------------------

TEST(Independence, RelationMatchesTheTransportModel) {
  const Decision m0 = mkDecision(Site::PmpiMatch, 0, 0, 2, 1);
  const Decision m3 = mkDecision(Site::PmpiMatch, 3, 0, 2, 1);
  const Decision r01 = mkDecision(Site::Retransmit, 0x000000001ull, 0, 2, 0);
  const Decision r23 = mkDecision(Site::Retransmit, 0x200000003ull, 0, 2, 0);
  const Decision f = mkDecision(Site::FaultInstant, 4, 0, 3, 0);

  EXPECT_FALSE(mc::dependent(m0, m3));  // matches at different procs commute
  EXPECT_TRUE(mc::dependent(m0, m0));
  EXPECT_TRUE(mc::dependent(r01, m0));   // match proc 0 is channel 0->1's src
  EXPECT_FALSE(mc::dependent(r01, m3));  // proc 3 is not an endpoint of 0->1
  EXPECT_TRUE(mc::dependent(r23, m3));   // dst endpoint
  EXPECT_FALSE(mc::dependent(r01, r23));  // disjoint channels commute
  EXPECT_TRUE(mc::dependent(f, m3));      // faults commute with nothing
  EXPECT_TRUE(mc::dependent(r01, f));
}

TEST(Independence, CanonicalHashIdentifiesCommutedIndependentOrders) {
  const Decision a = mkDecision(Site::PmpiMatch, 1, 0, 2, 2);
  const Decision b = mkDecision(Site::PmpiMatch, 6, 1, 2, 4);
  ASSERT_FALSE(mc::dependent(a, b));
  EXPECT_EQ(mc::canonicalHash({a, b}), mc::canonicalHash({b, a}));

  // Dependent decisions must NOT collapse: order carries meaning.
  const Decision a2 = mkDecision(Site::PmpiMatch, 1, 1, 2, 4);
  ASSERT_TRUE(mc::dependent(a, a2));
  EXPECT_NE(mc::canonicalHash({a, a2}), mc::canonicalHash({a2, a}));
}

TEST(Independence, RetransmitChosenSlotIsMaskedAsJitter) {
  const Decision now = mkDecision(Site::Retransmit, 0x100000002ull, 0, 2, 0);
  const Decision jit = mkDecision(Site::Retransmit, 0x100000002ull, 1, 2, 1);
  EXPECT_EQ(mc::canonicalHash({now}), mc::canonicalHash({jit}));
  // ...but a match pick is a real behavioral difference.
  const Decision m0 = mkDecision(Site::PmpiMatch, 0, 0, 2, 1);
  const Decision m1 = mkDecision(Site::PmpiMatch, 0, 1, 2, 2);
  EXPECT_NE(mc::canonicalHash({m0}), mc::canonicalHash({m1}));
}

// ---- Trace round-trip ----------------------------------------------------------------

TEST(Trace, DumpParseRoundTrips) {
  mc::Trace t;
  t.scenario = "drop-retransmit-race";
  t.message = "in-order violation: message #1 from sender 2";
  t.choices = {0, 1, 0};
  t.decisions = {mkDecision(Site::Retransmit, 0x100000000ull, 0, 2, 0),
                 mkDecision(Site::PmpiMatch, 0, 1, 2, 2),
                 mkDecision(Site::FaultInstant, 3, 0, 3, 1)};
  const std::string json = mc::dumpTrace(t);
  const mc::Trace back = mc::parseTrace(json, "roundtrip");
  EXPECT_EQ(back.scenario, t.scenario);
  EXPECT_EQ(back.message, t.message);
  EXPECT_EQ(back.choices, t.choices);
  ASSERT_EQ(back.decisions.size(), 3u);
  EXPECT_EQ(back.decisions[0].site, Site::Retransmit);
  EXPECT_EQ(back.decisions[0].locus, 0x100000000ull);
  EXPECT_EQ(back.decisions[2].alternatives, 3);
  EXPECT_EQ(back.decisions[2].key, 1u);
  EXPECT_EQ(mc::dumpTrace(back), json);
}

// ---- Committed corpus: pinned schedule counts ----------------------------------------

mc::McScenario loadExample(const std::string& file) {
  const std::string path = std::string(CBSIM_MC_EXAMPLES_DIR) + "/" + file;
  return mc::scenarioFromDoc(desc::parse(desc::readFile(path), path), path);
}

struct CorpusPin {
  const char* file;
  long pruned_runs;       // schedules run with sleep sets on
  long pruned_equivalent; // of which recognized equivalent (not expanded)
  long exhaustive_runs;   // schedules run with sleep sets off
};

// These counts are the corpus contract: a change here means the reachable
// schedule space of the transport/recovery machinery changed shape, which
// must be a conscious decision, not drift.
constexpr CorpusPin kCorpus[] = {
    {"msg-race-tiny.json", 6, 0, 6},
    {"drop-retransmit-race.json", 12, 6, 48},
    {"checkpoint-during-flap.json", 54, 42, 192},
};

class CorpusCount : public ::testing::TestWithParam<CorpusPin> {};
INSTANTIATE_TEST_SUITE_P(Corpus, CorpusCount, ::testing::ValuesIn(kCorpus),
                         [](const auto& info) {
                           std::string n = info.param.file;
                           for (char& ch : n) {
                             if (ch == '-' || ch == '.') ch = '_';
                           }
                           return n;
                         });

TEST_P(CorpusCount, ExploresCleanWithPinnedScheduleCounts) {
  const CorpusPin pin = GetParam();
  mc::McScenario s = loadExample(pin.file);

  const mc::ExploreResult pruned = mc::exploreScenario(s);
  EXPECT_FALSE(pruned.violation) << pruned.message;
  EXPECT_TRUE(pruned.complete());
  EXPECT_EQ(pruned.schedulesRun, pin.pruned_runs);
  EXPECT_EQ(pruned.equivalentPruned, pin.pruned_equivalent);

  s.budget.sleepSets = false;
  const mc::ExploreResult full = mc::exploreScenario(s);
  EXPECT_FALSE(full.violation) << full.message;
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.schedulesRun, pin.exhaustive_runs);
  EXPECT_EQ(full.equivalentPruned, 0);
}

TEST(Corpus, ExplorationIsDeterministic) {
  const mc::McScenario s = loadExample("drop-retransmit-race.json");
  const mc::ExploreResult a = mc::exploreScenario(s);
  const mc::ExploreResult b = mc::exploreScenario(s);
  EXPECT_EQ(a.schedulesRun, b.schedulesRun);
  EXPECT_EQ(a.equivalentPruned, b.equivalentPruned);
  EXPECT_EQ(a.violation, b.violation);
}

// ---- The seeded transport defect -----------------------------------------------------

TEST(SeededDefect, BrokenDedupIsFoundAndDeterministicallyReplayed) {
  // Acceptance gate: with the test-only dedup/reorder bypass enabled the
  // explorer must find an ordering violation quickly (the bound is 60s;
  // in practice this is milliseconds), dump a schedule, and that schedule
  // must replay to the identical violation — while the unmodified
  // transport explores the same corpus clean (the CorpusCount tests).
  mc::McScenario s = loadExample("drop-retransmit-race.json");
  s.breakDedup = true;
  const mc::ExploreResult res = mc::exploreScenario(s);
  ASSERT_TRUE(res.violation);
  EXPECT_NE(res.message.find("violation"), std::string::npos);
  EXPECT_LE(res.schedulesRun, 50) << "defect should surface early in DFS";
  ASSERT_FALSE(res.badSchedule.empty());

  // Same schedule, same defect: byte-identical verdict.
  EXPECT_EQ(mc::replay(mc::makeRun(s), res.badSchedule), res.message);

  // Same schedule, healthy transport: clean.  The defect is in the code
  // under test, not in the schedule.
  mc::McScenario healthy = loadExample("drop-retransmit-race.json");
  EXPECT_EQ(mc::replay(mc::makeRun(healthy), res.badSchedule), "");
}

TEST(SeededDefect, RaceFreeScenarioStaysCleanEvenWhenBroken) {
  // Without drops there are no retransmits and per-channel arrival order
  // equals send order — the defective fast path is coincidentally correct.
  // This pins down that the violation above is a genuine interleaving
  // defect, not a trivially-always-firing assertion.
  mc::McScenario s = loadExample("msg-race-tiny.json");
  s.breakDedup = true;
  const mc::ExploreResult res = mc::exploreScenario(s);
  EXPECT_FALSE(res.violation) << res.message;
}

// ---- Scenario desc round-trip --------------------------------------------------------

TEST(McDesc, CorpusFilesRoundTripThroughCanonicalForm) {
  for (const CorpusPin& pin : kCorpus) {
    const mc::McScenario s = loadExample(pin.file);
    const std::string dumped = mc::dumpScenario(s);
    const mc::McScenario back =
        mc::scenarioFromDoc(desc::parse(dumped, pin.file), pin.file);
    EXPECT_EQ(mc::dumpScenario(back), dumped) << pin.file;
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.family, s.family);
    EXPECT_EQ(back.budget.maxSchedules, s.budget.maxSchedules);
  }
}

TEST(McDesc, UnknownKeysAreRejected) {
  const std::string doc = R"({"explore": {"family": "message-race",
      "drain_sec": 1.0, "retransmit_jitter": true}})";
  EXPECT_THROW(
      (void)mc::scenarioFromDoc(desc::parse(doc, "inline"), "inline"),
      std::runtime_error);
}

TEST(McDesc, BrokenDedupIsNotExpressibleInDescriptions) {
  // The defect switch must stay a code-level flag: description files are
  // shipped configuration, and shipped configuration must not be able to
  // turn off delivery guarantees.
  const std::string doc = R"({"explore": {"family": "message-race",
      "drain_sec": 1.0, "break_dedup": true}})";
  EXPECT_THROW(
      (void)mc::scenarioFromDoc(desc::parse(doc, "inline"), "inline"),
      std::runtime_error);
  EXPECT_EQ(mc::dumpScenario(loadExample("msg-race-tiny.json"))
                .find("break_dedup"),
            std::string::npos);
}

// ---- Description errors --------------------------------------------------------------

// A bad supervisor input or a fault plan aimed at a target the world lacks
// is a description error: makeRun (which `cbsim mc --validate` calls)
// throws naming it, instead of the explorer reporting a violation.
TEST(McScenarios, CheckpointRestartRejectsBadSupervisorInputs) {
  const std::pair<void (*)(mc::McScenario&), const char*> cases[] = {
      {[](mc::McScenario& s) { s.maxAttempts = 0; }, "max_attempts >= 1"},
      {[](mc::McScenario& s) { s.spareNodes = -1; }, "spare_nodes >= 0"},
      {[](mc::McScenario& s) { s.restartDelaySec = -0.001; },
       "restart_delay_sec >= 0"},
      {[](mc::McScenario& s) {
         s.machine = hw::MachineConfig::deepEr(3, 2);
         s.ranks = 4;
       },
       "4 ranks need as many Cluster nodes, the machine has 3"},
  };
  for (const auto& [mutate, expected] : cases) {
    mc::McScenario s = loadExample("checkpoint-during-flap.json");
    mutate(s);
    try {
      (void)mc::makeRun(s);
      ADD_FAILURE() << "accepted a scenario that needs " << expected;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(McScenarios, MakeRunRejectsAFaultPlanAimedAtAMissingTarget) {
  mc::McScenario s = loadExample("checkpoint-during-flap.json");
  fault::FaultPlan plan;
  plan.flapEndpoint(99, sim::SimTime::seconds(0.004),
                    sim::SimTime::seconds(0.006));
  s.fault = plan;
  EXPECT_THROW((void)mc::makeRun(s), std::invalid_argument);
}

// ---- DeterministicChooser byte-identity regression -----------------------------------

struct BackendGuard {
  sim::ProcessBackend saved = sim::defaultProcessBackend();
  ~BackendGuard() { sim::setDefaultProcessBackend(saved); }
};

std::string campaignJson(const std::string& name, sim::ProcessBackend backend,
                         int jobs) {
  sim::setDefaultProcessBackend(backend);
  return campaign::toJson(campaign::runCampaign(
      campaign::builtinCampaign(name), campaign::withJobs(jobs)));
}

class ChooserIdentity : public ::testing::TestWithParam<const char*> {};
INSTANTIATE_TEST_SUITE_P(Campaigns, ChooserIdentity,
                         ::testing::Values("fig8-tiny", "resilience-tiny"));

TEST_P(ChooserIdentity, DefaultChooserReportsAreByteIdenticalEverywhere) {
  // The campaign layer now routes every run through an attached
  // DeterministicChooser.  That must be a pure refactor: reports stay
  // byte-identical across process backends and worker counts, exactly as
  // the pre-choice-point goldens demand.
  BackendGuard guard;
  const std::string name = GetParam();
  const std::string fiber1 = campaignJson(name, sim::ProcessBackend::Fiber, 1);
  const std::string fiber8 = campaignJson(name, sim::ProcessBackend::Fiber, 8);
  const std::string thread2 =
      campaignJson(name, sim::ProcessBackend::Thread, 2);
  EXPECT_EQ(fiber1, fiber8);
  EXPECT_EQ(fiber1, thread2);
}

}  // namespace
