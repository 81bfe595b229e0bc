#pragma once

// One chaos trial: the scenario's own invariants (mc/scenarios.hpp) run
// once under a fault plan, on the production schedule — the
// DeterministicChooser the real stack attaches.  The fuzzer explores the
// *fault* space trial by trial; the mc explorer explores the *scheduling*
// space of one fault plan.  The two compose: a shrunk chaos artifact's
// scenario carries its plan as its `fault`, so `cbsim mc` can take it apart
// decision by decision.

#include <string>

#include "fault/plan.hpp"
#include "mc/scenarios.hpp"

namespace cbsim::chaos {

/// Builds a fresh world for `scenario` with `plan` installed as its fault
/// plan and runs it once, deterministically.  Returns "" when every
/// invariant held, else the violation message.  Throws on configuration
/// errors (invalid scenario, plan targets the machine does not have) —
/// those are not trial outcomes.
[[nodiscard]] std::string runTrial(const mc::McScenario& scenario,
                                   const fault::FaultPlan& plan);

}  // namespace cbsim::chaos
