#pragma once

// Built-in campaigns.
//
// fig8Campaign  — the paper's Fig. 8 grid: execution mode (Cluster-only /
//     Booster-only / C+B) x nodes-per-solver (1/2/4/8), one isolated xPic
//     world per cell, with the section IV-C derived numbers (parallel
//     efficiencies, C+B gains, efficiency crossovers) computed campaign-
//     wide.  This is the sweep the golden-reference suite pins down.
//
// resilienceCampaign — the DEEP-ER-style resiliency matrix (Kreuzer et
//     al., arXiv:1904.07725): node MTBF x SCR checkpoint-level scheme.
//     Each scenario supervises a checkpointing job under exponentially
//     distributed node failures (scr::FailureInjector) until it completes,
//     and reports attempts, injected failures, completion time and
//     checkpoint overhead.
//
// haloCampaign — scale-out fabric sweep: a 2D periodic halo-exchange
//     stencil (4-neighbour nonblocking exchange + periodic allreduce) run
//     at increasing rank counts on a generated fat-tree or dragonfly
//     machine.  The fabric's routing mode and congestion model are
//     scenario parameters, which is what the structural-vs-enumerated
//     equivalence tests and the 10k+-rank benches drive.
//
// chaosCampaign — fault-fuzzing sweep: one scenario per chaos trial, each
//     running an invariant-checked mc scenario under a seed-deterministic
//     fault schedule (chaos/generate.hpp).  Trial seeds match
//     chaos::fuzz(), so any violating cell is reproducible — and
//     shrinkable — with `cbsim chaos --trials 1 --seed <trial seed>`.
//
// The grid builders live in grids.cpp; the builtin registry (builtin.cpp)
// holds nothing but embedded description strings, parsed through the
// campaign desc bindings — the same path that handles --scenario-file.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "chaos/fuzz.hpp"
#include "extoll/fabric.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pmpi/types.hpp"
#include "scr/scr.hpp"
#include "xpic/config.hpp"

namespace cbsim::campaign {

struct Fig8Params {
  xpic::XpicConfig xpic = xpic::XpicConfig::tableII();
  hw::MachineConfig machine = hw::MachineConfig::deepEr();
  std::vector<int> nodeCounts = {1, 2, 4, 8};
};

[[nodiscard]] Campaign fig8Campaign(const Fig8Params& params = {});

/// One SCR cadence under test, e.g. {"L1L2", local every step + buddy
/// every 2nd}.
struct CheckpointScheme {
  std::string label;
  scr::ScrConfig scr;
};

/// The default resiliency ladder: L1 only, L1+L2, L1+L2+L3.
[[nodiscard]] std::vector<CheckpointScheme> defaultCheckpointSchemes();

/// Protocol defaults for the resilience matrix: the reliable transport is
/// on (the degraded fabric drops and corrupts messages).
[[nodiscard]] pmpi::ProtocolParams resilienceDefaultProtocol();

struct ResilienceParams {
  /// Simulated node-MTBF sweep, in seconds.  The job itself runs for a
  /// fraction of a simulated second, so these MTBFs probe failure-free
  /// through failure-dominated regimes.
  std::vector<double> mtbfSec = {0.25, 0.5, 1.0, 2.0};
  /// Checkpoint-level schemes swept against every MTBF.
  std::vector<CheckpointScheme> schemes = defaultCheckpointSchemes();
  int ranks = 4;
  int steps = 30;
  double stepSec = 0.020;       ///< per-step simulated compute
  std::size_t stateBytes = 256 << 10;  ///< checkpoint payload per rank
  int maxAttempts = 40;         ///< supervisor relaunch budget

  /// pmpi protocol knobs (reliable transport on by default — the fabric
  /// runs lossy for the whole scenario).
  pmpi::ProtocolParams protocol = resilienceDefaultProtocol();

  /// Platform override.  When unset each scenario builds the DEEP-ER
  /// machine with ranks + spare_nodes Cluster nodes and 2 Boosters.
  std::optional<hw::MachineConfig> machine;

  /// Fault-plan override.  When unset the plan is built from the scalar
  /// knobs below (loss/corruption everywhere, a bandwidth slump plus a
  /// brief flap on node 1's endpoint).
  std::optional<fault::FaultPlan> faultPlan;

  // Degraded-fabric fault injection knobs (used when `faultPlan` is unset).
  double dropProb = 0.0015;     ///< per-message random loss
  double corruptProb = 0.0005;  ///< per-message CRC-failure probability
  double degradeFactor = 0.35;  ///< endpoint bandwidth factor in the window
  double degradeFromSec = 0.05; ///< degradation window on node 1's endpoint
  double degradeUntilSec = 0.20;
  double flapFromSec = 0.08;    ///< brief full outage inside the window
  double flapUntilSec = 0.082;

  // Recovery loop.  Spare nodes let the supervisor relaunch while the
  // failed node sits in repair (MTTR); the first failure is pinned to a
  // deterministic mid-run time so every scenario exercises the loop.
  int spareNodes = 2;
  double repairSec = 0.25;          ///< MTTR; <= 0 disables repair
  double firstFailureAtSec = 0.12;  ///< deterministic first node failure
  double restartDelaySec = 0.005;   ///< supervisor relaunch latency
};

[[nodiscard]] Campaign resilienceCampaign(const ResilienceParams& params = {});

/// Default halo platform: a generated 64-node fat-tree (8 leaves x 4
/// spines, 8 nodes per leaf).
[[nodiscard]] hw::MachineConfig defaultHaloMachine();

struct HaloParams {
  /// Platform under test; any machine works, generated topologies are the
  /// point (structural routing engages automatically on them).
  hw::MachineConfig machine = defaultHaloMachine();
  /// Fabric routing mode and congestion model for every scenario.
  extoll::FabricOptions fabric;
  /// Rank counts swept (one rank per Cluster node; every count must fit
  /// the machine).
  std::vector<int> rankCounts = {16, 64};
  int steps = 10;
  std::size_t haloBytes = 4 << 10;  ///< per-neighbour halo payload per step
  double computeSec = 200e-6;       ///< per-step interior compute
  int allreduceEvery = 5;           ///< residual allreduce cadence; 0 = never
  /// Per-rank fiber stack size in KiB; 0 keeps the engine default
  /// (CBSIM_FIBER_STACK_KB or 256).  Large sweeps shrink this so stack
  /// reservation, not the application state, stays off the critical RSS
  /// path.  Clamped to >= 16 KiB by the engine.
  int fiberStackKb = 0;
  pmpi::ProtocolParams protocol;
};

[[nodiscard]] Campaign haloCampaign(const HaloParams& params = {});

/// Default fuzzing spec: the reliable transport (message-race family)
/// under a mixed endpoint/switch/storm profile with moderate packet loss,
/// 100 trials.
[[nodiscard]] chaos::ChaosSpec defaultChaosSpec();

struct ChaosParams {
  chaos::ChaosSpec spec = defaultChaosSpec();
};

[[nodiscard]] Campaign chaosCampaign(const ChaosParams& params = {});

/// Built-in campaign by name ("fig8", "fig8-tiny", "resilience",
/// "resilience-tiny", "halo", "halo-tiny", "chaos", "chaos-tiny"); throws
/// std::invalid_argument for unknown names.
/// Resolved by parsing the builtin's embedded description string.
[[nodiscard]] Campaign builtinCampaign(const std::string& name);
[[nodiscard]] std::vector<std::string> builtinCampaignNames();

/// The embedded description text of a builtin campaign (what --dump
/// canonicalizes); throws std::invalid_argument for unknown names.
[[nodiscard]] const char* builtinCampaignText(const std::string& name);

}  // namespace cbsim::campaign
