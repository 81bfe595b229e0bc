#pragma once

// Description bindings for fault::FaultPlan.
//
// Schema (all keys optional; an empty object is the inert plan):
//   {
//     "drop_prob": 0.0015,
//     "corrupt_prob": 0.0005,
//     "endpoint_windows": [
//       { "endpoint": 1, "from_sec": 0.05, "until_sec": 0.2, "bw_factor": 0.35 }
//     ],
//     "trunk_windows": [
//       { "trunk": 0, "from_sec": 0.08, "until_sec": 0.082, "bw_factor": 0 }
//     ],
//     "switch_windows": [
//       { "switch": 0, "from_sec": 0.1, "until_sec": 0.15, "bw_factor": 0 }
//     ],
//     "nam_windows": [
//       { "nam": 0, "from_sec": 0.1, "until_sec": 0.3, "bw_factor": 0.5 }
//     ],
//     "node_crashes": [
//       { "node": 3, "at_sec": 0.2, "restart_after_sec": 1.0 }
//     ]
//   }
// A bw_factor of 0 is an outage (link flap / switch or NAM down).  Any
// window or crash may also carry "storm": <id>, the chaos generator's
// correlated-burst tag (written only when set).
//
// With a machine context, "endpoint" and "node" also accept node names
// ("cn03"), "switch" accepts switch names ("extoll-fabric"), and every
// reference is validated against the machine — unknown names/indices and
// contradictory windows are rejected with the reader's
// origin:line:column.  The canonical dump always uses indices.

#include "desc/schema.hpp"
#include "fault/plan.hpp"

namespace cbsim::hw {
struct MachineConfig;
}

namespace cbsim::fault {

/// With a `machine`, the parse resolves node/switch names and runs
/// FaultPlan::validateFor; without one it takes indices only and checks
/// no target's existence.
[[nodiscard]] FaultPlan faultPlanFromDesc(
    desc::Reader& r, const hw::MachineConfig* machine = nullptr);
[[nodiscard]] desc::Value toDesc(const FaultPlan& p);

}  // namespace cbsim::fault
