#pragma once

// Seed-deterministic fault sampling: one 64-bit trial seed plus a profile
// and a concrete machine fully determine a trial's fault::FaultPlan.
//
// All randomness flows through a single sim::Rng seeded with the trial
// seed, consumed in a fixed class order (drop prob, corrupt prob, then
// endpoint / trunk / switch / NAM windows, node crashes, storms), so the
// plan — and therefore the whole trial, since the simulation itself is
// deterministic — is replayable from (profile, machine, seed) alone.
// Arrivals per class are Poisson via exponential interarrival times.
//
// Classes whose target pool is empty on this machine (no trunks, no NAMs,
// an exhaustive filter) are skipped without consuming RNG draws: the
// plan depends only on the inputs, never on ambient state.

#include <cstdint>
#include <vector>

#include "chaos/profile.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"

namespace cbsim::chaos {

/// Samples one normalized plan.  Throws std::invalid_argument when a
/// profile target filter references a target the machine does not have —
/// a configuration error, not a trial outcome.
[[nodiscard]] fault::FaultPlan generatePlan(const ChaosProfile& profile,
                                            const hw::MachineConfig& machine,
                                            std::uint64_t trialSeed);

/// `p`'s probabilities with `faults` in chaos's canonical form: sorted by
/// (from, kind, target, until, factor, restart, storm), and without the
/// degradation windows an outage of the same target buries
/// (fault::buriedBy, the windows validateFor rejects).  Random sampling and
/// window shortening both produce such pairs legitimately; normalizing
/// resolves them the same way every time, which keeps generate→trial and
/// shrink→trial deterministic.
[[nodiscard]] fault::FaultPlan normalized(const fault::FaultPlan& p,
                                          std::vector<fault::Fault> faults);

}  // namespace cbsim::chaos
