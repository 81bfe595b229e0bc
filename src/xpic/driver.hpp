#pragma once

// xPic execution drivers — the paper's three benchmark scenarios:
//
//   Mode::ClusterOnly  — both solvers in one job on Cluster nodes,
//   Mode::BoosterOnly  — both solvers in one job on Booster nodes,
//   Mode::ClusterBooster — the partitioned C+B mode: the Booster binary is
//       started first and MPI_Comm_spawns the Cluster binary (section IV-B);
//       fields run on Cluster ranks, particles on Booster ranks, coupled 1:1
//       through the inter-communicator with non-blocking Issend/Irecv
//       overlapped with auxiliary computations (Fig. 6, listings 2-4).
//
// runXpic() builds a fresh simulated DEEP-ER machine, runs one scenario to
// completion, and returns an aggregated Report — the unit from which the
// Fig. 7 / Fig. 8 benches assemble the paper's tables.

#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "obs/tracer.hpp"
#include "pmpi/registry.hpp"
#include "xpic/config.hpp"

namespace cbsim::xpic {

enum class Mode { ClusterOnly, BoosterOnly, ClusterBooster };

[[nodiscard]] constexpr const char* toString(Mode m) {
  switch (m) {
    case Mode::ClusterOnly: return "Cluster";
    case Mode::BoosterOnly: return "Booster";
    case Mode::ClusterBooster: return "C+B";
  }
  return "?";
}

struct Report {
  Mode mode = Mode::ClusterOnly;
  int nodesPerSolver = 1;

  // Simulated seconds (max over ranks of a job, summed over phases).
  double wallSec = 0;        ///< full run, launch to completion
  double fieldsSec = 0;      ///< calculateE + calculateB
  double particlesSec = 0;   ///< ParticlesMove + ParticleMoments + migration
  double auxSec = 0;         ///< auxiliary computations / diagnostics
  double fieldCommSec = 0;   ///< blocking-comm share of the field job
  double particleCommSec = 0;
  /// C+B only: time blocked on the inter-module exchange (includes waiting
  /// for the peer solver, so it is an upper bound on the transfer cost).
  double syncSec = 0;

  // Physics diagnostics (for validation).
  /// Field-energy samples taken every cfg.historyEvery steps (monolithic
  /// modes; empty when disabled).
  std::vector<double> fieldEnergyHistory;
  double fieldEnergy = 0;
  double kineticEnergy = 0;
  double netCharge = 0;      ///< should stay ~0 for a neutral plasma
  double momentumX = 0;
  long long particleCount = 0;
  int cgIterations = 0;
};

/// Runs one scenario on a freshly built machine.  `nodesPerSolver` follows
/// Fig. 8's x-axis: the C+B mode uses n Cluster + n Booster nodes; the
/// monolithic modes use n nodes of their kind.  When `tracer` is non-null
/// the run is recorded onto it (per-rank phase spans, link occupancy,
/// message lifecycle events) without perturbing any simulated time.
Report runXpic(Mode mode, int nodesPerSolver, const XpicConfig& cfg,
               hw::MachineConfig machineCfg = hw::MachineConfig::deepEr(),
               obs::Tracer* tracer = nullptr);

/// Registers the three xPic "binaries" on a registry (advanced use: embeds
/// xPic into an externally managed runtime).  `report` receives the
/// aggregated results; it must outlive the run.
void registerXpicApps(pmpi::AppRegistry& registry, const XpicConfig& cfg,
                      int nodesPerSolver, Report* report);

/// Registered app names.
inline constexpr const char* kMonolithicApp = "xpic";
inline constexpr const char* kBoosterApp = "xpic.booster";   // __BOOSTER__ binary
inline constexpr const char* kClusterApp = "xpic.cluster";   // __CLUSTER__ binary

}  // namespace cbsim::xpic
