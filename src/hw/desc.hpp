#pragma once

// Description bindings for the hw layer: every spec struct in hw/ can be
// read from a desc::Reader and rendered back to a desc::Value.  This is
// the ONLY construction path from text to hw objects — the builtin
// machine presets (MachineConfig::deepEr() and friends) are themselves
// embedded description strings parsed through these bindings, so a
// description file and a preset can never drift apart structurally.
//
// Conventions:
//   * keys are snake_case versions of the struct fields,
//   * times are numbers in nanoseconds with an `_ns` suffix,
//   * each struct's keys are one field list (see desc/schema.hpp) that
//     both its reader and its toDesc() walk,
//   * a CPU / net-class / machine value may be a preset name string
//     ("xeon-haswell"), a full object, or an object with a "preset" key
//     whose remaining keys override individual preset fields,
//   * toDesc() always emits every field fully expanded (no preset
//     references), so parse(dump(x)) reconstructs x exactly and dumps
//     are canonical byte-for-byte.
//
// Presets are parsed once: each accessor binds its embedded texts through
// the readers on first use, keeps them in a function-local constant table
// and returns a copy, so two scenarios reading "the same" machine never
// share mutable state.  Every other description binds afresh on each call.

#include <string>
#include <vector>

#include "desc/schema.hpp"
#include "hw/machine.hpp"
#include "hw/topology.hpp"

namespace cbsim::hw {

// ---- Readers (Reader may wrap a preset string or an object) ----------------
[[nodiscard]] CpuSpec cpuSpecFromDesc(desc::Reader& r);
[[nodiscard]] NetClassSpec netClassSpecFromDesc(desc::Reader& r);
[[nodiscard]] NvmeSpec nvmeSpecFromDesc(desc::Reader& r);
[[nodiscard]] DiskSpec diskSpecFromDesc(desc::Reader& r);
[[nodiscard]] NamSpec namSpecFromDesc(desc::Reader& r);
[[nodiscard]] SwitchSpec switchSpecFromDesc(desc::Reader& r);
[[nodiscard]] TrunkSpec trunkSpecFromDesc(desc::Reader& r);
[[nodiscard]] NodeGroupSpec nodeGroupSpecFromDesc(desc::Reader& r);
/// Generated-topology object ({"kind": "fat-tree" | "dragonfly", ...}).
/// Fat-tree accepts either explicit pods/spines/nodes_per_pod or the
/// `radix` shorthand (k-port switches: k leaves, k/2 spines, k/2 nodes
/// per leaf; k must be even).  A machine description with a "topology"
/// key materializes through TopologySpec::materialize().
[[nodiscard]] TopologySpec topologySpecFromDesc(desc::Reader& r);
[[nodiscard]] MachineConfig machineConfigFromDesc(desc::Reader& r);

/// Resizes the first group of `kind`; a count <= 0 removes the group (used
/// by the preset accessors, whose node counts are C++ parameters).  Throws
/// desc::SchemaError when the machine has no group of that kind.
void setGroupCount(MachineConfig& cfg, NodeKind kind, int count);

// ---- Writers ---------------------------------------------------------------
[[nodiscard]] desc::Value toDesc(const CpuSpec& s);
[[nodiscard]] desc::Value toDesc(const NetClassSpec& s);
[[nodiscard]] desc::Value toDesc(const NvmeSpec& s);
[[nodiscard]] desc::Value toDesc(const DiskSpec& s);
[[nodiscard]] desc::Value toDesc(const NamSpec& s);
[[nodiscard]] desc::Value toDesc(const SwitchSpec& s);
[[nodiscard]] desc::Value toDesc(const TrunkSpec& s);
[[nodiscard]] desc::Value toDesc(const NodeGroupSpec& s);
[[nodiscard]] desc::Value toDesc(const TopologySpec& t);
[[nodiscard]] desc::Value toDesc(const MachineConfig& c);

// ---- Preset registries (each preset is an embedded description string) -----
[[nodiscard]] std::vector<std::string> cpuPresetNames();
[[nodiscard]] CpuSpec cpuPreset(const std::string& name);
[[nodiscard]] std::vector<std::string> netPresetNames();
[[nodiscard]] NetClassSpec netPreset(const std::string& name);
[[nodiscard]] std::vector<std::string> machinePresetNames();
[[nodiscard]] MachineConfig machinePreset(const std::string& name);

// ---- NodeKind <-> description key ------------------------------------------
[[nodiscard]] const char* nodeKindKey(NodeKind k);
[[nodiscard]] NodeKind nodeKindFromKey(desc::Reader& r);

}  // namespace cbsim::hw
