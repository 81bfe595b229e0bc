#pragma once

// Scenario campaigns: many independent simulation configurations executed
// as one sweep (the paper's results are exactly such sweeps — Fig. 8's
// partition x node-count grid, DEEP-ER's MTBF x checkpoint-level
// resiliency matrix).
//
// Each Scenario runs in a fully isolated simulated world: its closure
// constructs its own pmpi::World (engine to runtime) and receives a
// ScenarioContext carrying a deterministic per-scenario seed and a private
// obs::Tracer (hence a private metrics registry).  Nothing in src/ holds
// mutable global state (audited; regression-tested in test_campaign), so
// scenarios may execute concurrently on the runner's worker pool while
// staying bit-reproducible.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"

namespace cbsim::campaign {

/// Named numeric results.  An ordered map so every rendering of a result
/// set is deterministic by construction.
using Values = std::map<std::string, double>;

/// Per-scenario world handle passed to Scenario::run.
struct ScenarioContext {
  /// Deterministic seed, derived from the campaign's base seed and the
  /// scenario name (never from scheduling order or wall clock).
  std::uint64_t seed = 0;
  /// Private tracer + metrics registry for this world.  Scenario bodies
  /// attach it to their engine; the runner snapshots the metrics into the
  /// ScenarioResult afterwards.  Campaign runs keep it in metrics-only
  /// mode so sweeping hundreds of scenarios does not accumulate timelines.
  obs::Tracer tracer;
};

/// One independent simulation configuration.
struct Scenario {
  /// Unique key within the campaign (also the report key).
  std::string name;
  /// Relative host-cost estimate; the runner starts expensive scenarios
  /// first so the pool drains evenly (classic LPT scheduling).
  double costHint = 1.0;
  /// Builds a world, runs it to completion, returns the scenario's values.
  std::function<Values(ScenarioContext&)> run;
};

/// Result of one scenario; produced by the runner.
struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;
  Values values;
  /// Snapshot of the world's metrics registry (counters; gauges add a
  /// ".max" entry).
  Values metrics;
  /// Non-empty when the scenario threw; values/metrics are then empty.
  std::string error;
  /// Non-empty when the scenario completed but its post-run trace-file
  /// write failed; values/metrics are KEPT (the simulation result is valid
  /// regardless of the host filesystem).  Host-environment dependent, so
  /// never serialized into reports — the CLI surfaces it on stderr.
  std::string traceWarning;
  /// Host seconds spent on this scenario — a *difference* of two
  /// monotonic-clock readings (diagnostic only; never written to reports,
  /// never comparable to wall-clock time).
  double hostSec = 0;
};

/// A named set of scenarios plus optional cross-scenario derivations.
struct Campaign {
  std::string name;
  std::string description;
  /// Base seed mixed into every scenario's seed.
  std::uint64_t baseSeed = 0x9e3779b97f4a7c15ULL;
  std::vector<Scenario> scenarios;
  /// Computed after all scenarios finish, in definition order — the place
  /// for cross-scenario numbers (parallel efficiencies, gains, crossover
  /// points).  May be empty.
  std::function<Values(const std::vector<ScenarioResult>&)> derive;
};

/// Deterministic per-scenario seed: SplitMix64 finalization of the base
/// seed xor an FNV-1a hash of the scenario name.  Stable across platforms,
/// thread counts and scenario reordering.
[[nodiscard]] std::uint64_t scenarioSeed(std::uint64_t baseSeed,
                                         std::string_view name);

}  // namespace cbsim::campaign
