#pragma once

// Campaign runner: executes a campaign's scenarios concurrently on a
// std::thread worker pool and merges the results into a CampaignReport
// whose content — and hence every serialization of it — is independent of
// the worker count and of thread interleaving.
//
// Dispatch: scenarios are sorted expensive-first (LPT); workers claim
// them one at a time from one shared counter, in that order.
//
// Determinism contract:
//   * each scenario index is executed by exactly one worker, which writes
//     its result into that index's slot of the definition-order result
//     vector,
//   * per-scenario seeds derive from (baseSeed, name), not from scheduling,
//   * host timing is recorded for diagnostics only — it is a difference of
//     monotonic (steady_clock) readings, never wall-clock time — and is
//     excluded from the report writers (report.hpp).
// Under this contract `--jobs 1` and `--jobs N` produce byte-identical
// reports (regression-tested on both process backends, and under TSan).

#include <cstdint>
#include <vector>

#include "campaign/scenario.hpp"

namespace cbsim::campaign {

struct RunnerOptions {
  /// Worker threads; 0 means one per hardware thread.  Clamped to
  /// [1, scenario count].
  int jobs = 1;
  /// When non-empty, scenarios record full timelines (instead of the
  /// default metrics-only mode) and each one's Chrome trace JSON is
  /// written to `<traceDir>/<scenario>.trace.json` ('/' in scenario names
  /// becomes '_'; scenarios whose sanitized names collide — "a/b" vs
  /// "a_b" — get a short name-hash suffix, checked before any scenario
  /// runs).  Trace files do not feed into the report, so the determinism
  /// contract is untouched; a failed trace write keeps the scenario's
  /// results and sets ScenarioResult::traceWarning.
  std::string traceDir;
};

/// Convenience for the common "just set the worker count" call sites.
[[nodiscard]] inline RunnerOptions withJobs(int jobs) {
  RunnerOptions o;
  o.jobs = jobs;
  return o;
}

/// Merged outcome of a campaign run.
struct CampaignReport {
  std::string campaign;
  std::string description;
  /// One entry per scenario, in campaign definition order.
  std::vector<ScenarioResult> scenarios;
  /// Cross-scenario derivations (Campaign::derive), if any.
  Values derived;
  /// Host seconds for the whole run — a monotonic-clock difference
  /// (diagnostic; not serialized, not wall-clock time).
  double hostElapsedSec = 0;
  /// Worker threads actually used (diagnostic; not serialized).
  int jobsUsed = 1;

  /// Sum of per-scenario host times.  Workers that share a core each
  /// count the time they wait for it, so this is not what one worker
  /// would take: the CLI prints it next to the wall time, not as a
  /// speedup.
  [[nodiscard]] double hostScenarioSecSum() const;
  [[nodiscard]] int failedCount() const;
  /// Scenarios that completed but could not write their trace file.
  [[nodiscard]] int traceWarningCount() const;
};

/// Throws std::invalid_argument naming the first scenario name that occurs
/// twice.  buildCampaign calls it, so a description is rejected before
/// anything runs or any output file is opened.
void checkScenarioNames(const Campaign& campaign);

/// Runs every scenario (expensive ones first), merges, derives.
/// Scenario exceptions are captured per-scenario (ScenarioResult::error);
/// the run itself only throws on campaign-level misuse (duplicate names,
/// checked with checkScenarioNames).
[[nodiscard]] CampaignReport runCampaign(const Campaign& campaign,
                                         const RunnerOptions& opts = {});

}  // namespace cbsim::campaign
