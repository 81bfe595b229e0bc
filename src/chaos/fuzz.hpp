#pragma once

// The fuzz loop and its on-disk forms.
//
// A ChaosSpec names an invariant-checked scenario (mc/scenarios.hpp) plus
// a ChaosProfile and a trial budget.  fuzz() walks the trials in order —
// trial seeds are derived from the campaign seed by a golden-ratio stride,
// which the splitmix reseed turns into uncorrelated streams — generating
// a fault plan per trial and running it deterministically.  The first
// violation stops the loop, is shrunk (chaos/shrink.hpp) and lands in a
// replayable Artifact.
//
// Document schema:
//   { "chaos": {
//       "name": "...", "seed": 1, "trials": 200,
//       "scenario": { ... mc explore binding, without the wrapper and
//                     without a "fault": every trial installs its own ... },
//       "profile":  { ... chaos profile binding ... } } }
//
// An artifact is self-contained — its scenario carries the shrunk plan as
// its "fault", no reference back to the spec:
//   { "chaos_artifact": {
//       "name": "...", "trial_seed": 123, "violation": "...",
//       "scenario": { ... mc explore binding, "fault" included ... } } }
// Wrapped as { "explore": <scenario> } it is an mc scenario, so `cbsim mc`
// can explore the schedules of the counterexample the fuzzer found.
//
// Like the mc trace format, breakDedup is never serialized: a description
// records an experiment, not a code defect.  Replaying an artifact that
// was found with the seeded defect needs --break-dedup again.

#include <cstdint>
#include <string>

#include "chaos/generate.hpp"
#include "chaos/profile.hpp"
#include "chaos/shrink.hpp"

namespace cbsim::chaos {

struct ChaosSpec {
  std::string name = "chaos";
  std::uint64_t seed = 0xcb51742a5ce1ull;
  int trials = 100;
  mc::McScenario scenario;
  ChaosProfile profile;
};

/// Parses a full document (with the "chaos" wrapper).
[[nodiscard]] ChaosSpec chaosSpecFromDoc(const desc::Value& doc,
                                         const std::string& origin);
[[nodiscard]] ChaosSpec chaosSpecFromDescText(const std::string& text,
                                              const std::string& origin);
/// Canonical full-document dump (with the "chaos" wrapper).
[[nodiscard]] std::string dumpSpec(const ChaosSpec& spec);

/// Seed of trial `trial` under this spec; the replay contract is that
/// generatePlan(profile, scenarioWorld(scenario), trialSeed(spec, i))
/// rebuilds trial i's plan exactly.
[[nodiscard]] std::uint64_t trialSeed(const ChaosSpec& spec, int trial);

struct FuzzOptions {
  bool shrink = true;
  int maxShrinkRuns = 400;
};

struct FuzzResult {
  int trialsRun = 0;
  bool violation = false;
  int badTrial = -1;
  std::uint64_t badSeed = 0;
  std::string message;       ///< violation of the as-generated plan
  fault::FaultPlan shrunk;   ///< minimal plan (as generated when shrink is off)
  std::string shrunkMessage;
  int shrinkRuns = 0;
  bool shrinkBudgetExhausted = false;
};

[[nodiscard]] FuzzResult fuzz(const ChaosSpec& spec,
                              const FuzzOptions& opt = {});

/// Minimal replayable counterexample: the spec's scenario with the shrunk
/// plan as its fault.
struct Artifact {
  std::string name;
  std::uint64_t trialSeed = 0;
  std::string violation;
  mc::McScenario scenario;
};

[[nodiscard]] Artifact makeArtifact(const ChaosSpec& spec,
                                    const FuzzResult& r);
[[nodiscard]] std::string dumpArtifact(const Artifact& a);
[[nodiscard]] Artifact artifactFromDoc(const desc::Value& doc,
                                       const std::string& origin);
/// Reads and parses an artifact file; throws desc errors with the path.
[[nodiscard]] Artifact artifactFromFile(const std::string& path);

/// Re-runs the artifact's trial; returns the violation message observed
/// now ("" = no longer reproduces on this binary).
[[nodiscard]] std::string replayArtifact(const Artifact& a);

}  // namespace cbsim::chaos
