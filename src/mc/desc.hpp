#pragma once

// Description bindings for mc::McScenario — exploration targets are
// declarative JSON like everything else in the system.
//
// Schema (top-level object):
//   {
//     "explore": {
//       "name": "drop-retransmit-race",
//       "family": "message-race" | "checkpoint-restart",
//       "seed": 223372036854775807,          // optional
//       "drain_sec": 30,                      // optional
//       "protocol": { ... },                  // optional, pmpi binding;
//                                             // reliable is forced on
//       "fault": { ... },                     // optional, fault binding
//       "budget": { "max_schedules": 2000,    // optional
//                   "max_depth": 512,
//                   "sleep_sets": true },
//       // message-race keys:
//       "senders": 2, "messages": 2,
//       // checkpoint-restart keys:
//       "ranks": 2, "steps": 6, "step_sec": 0.004, "state_bytes": 4096,
//       "spare_nodes": 1, "repair_sec": 0.05, "fail_at_sec": 0.008,
//       "fault_quantum_sec": 0.002, "max_attempts": 8,
//       "restart_delay_sec": 0.001,
//       "scr": { ... }                        // optional, scr binding
//     }
//   }
//
// The seeded-defect switch (breakDedup) is deliberately NOT part of the
// schema: a description file describes an experiment, not a code bug; the
// defect is enabled only by the `cbsim mc --break-dedup` flag and tests.

#include "desc/schema.hpp"
#include "mc/scenarios.hpp"

namespace cbsim::mc {

[[nodiscard]] McScenario scenarioFromDesc(desc::Reader& r);
/// Parses a full document (with the "explore" wrapper).
[[nodiscard]] McScenario scenarioFromDoc(const desc::Value& doc,
                                         const std::string& origin);
[[nodiscard]] desc::Value toDesc(const McScenario& s);
/// Canonical full-document dump (with the "explore" wrapper).
[[nodiscard]] std::string dumpScenario(const McScenario& s);

}  // namespace cbsim::mc
