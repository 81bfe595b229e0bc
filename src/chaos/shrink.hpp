#pragma once

// Greedy delta-debugging of a failing fault plan.
//
// The oracle is "does the trial still violate an invariant" — any
// violation counts, not just the original message, because a smaller
// plan often trips a logically-earlier check (exactly-once collapses
// into in-order, a drain timeout becomes a lost-message report) and
// insisting on message equality would freeze the shrink at the first
// rephrasing.
//
// Three reduction passes run to a fixpoint under one run budget:
//   1. fault removal, ddmin-style (chunks halving down to single faults),
//   2. probability zeroing (drop_prob, corrupt_prob),
//   3. duration halving (window widths and crash restart delays, in whole
//      picoseconds), floored at minWindow so the geometric descent
//      terminates.
// Every candidate is normalized before trialing, so the result is always
// a valid, canonical plan; the fixpoint makes the shrinker idempotent —
// re-shrinking its own output changes nothing.

#include <string>

#include "chaos/trial.hpp"

namespace cbsim::chaos {

struct ShrinkOptions {
  /// Hard budget on oracle runs (trials).  The shrink stops early —
  /// keeping its best plan so far — when it is exhausted.
  int maxRuns = 400;
  /// Smallest window width / restart delay the duration pass produces.
  sim::SimTime minWindow = sim::SimTime::ms(1);
};

struct ShrinkResult {
  fault::FaultPlan plan;  ///< smallest still-failing plan found
  std::string violation;  ///< its violation message
  int runs = 0;           ///< oracle invocations spent
  bool budgetExhausted = false;
};

/// Requires that `failing` actually fails on `base` (the first oracle run
/// checks; a clean plan makes the shrink throw std::invalid_argument —
/// shrinking a non-failure is always a caller bug).
[[nodiscard]] ShrinkResult shrinkPlan(const mc::McScenario& base,
                                      const fault::FaultPlan& failing,
                                      const ShrinkOptions& opt = {});

}  // namespace cbsim::chaos
