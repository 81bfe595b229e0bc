#pragma once

// ChaosProfile: the intensity knobs of a fault-fuzzing campaign.
//
// A profile does not name concrete faults — it gives per-class Poisson
// rates, window-shape bounds and optional target filters, and the
// generator (chaos/generate.hpp) samples a complete fault::FaultPlan from
// it under one 64-bit trial seed.  Rates are in events per
// simulated second over [0, horizon_sec); a class with rate 0 (or with no
// eligible targets on the scenario's machine) contributes nothing.
//
// Storms are correlated bursts: one arrival expands into several related
// events (a switch outage plus flaps of the endpoints behind it, or a
// multi-node crash cluster) that share a storm tag in the plan, all
// drawn from the same RNG stream so the whole burst is seed-determined.

#include <string>
#include <vector>

#include "desc/schema.hpp"

namespace cbsim::chaos {

struct ChaosProfile {
  /// Fault arrivals are sampled on [0, horizonSec); windows may overhang.
  double horizonSec = 0.5;

  // ---- per-class arrival rates (events per simulated second) ---------------
  double endpointRateHz = 0.0;  ///< endpoint link windows (degrade or flap)
  double trunkRateHz = 0.0;     ///< inter-switch trunk windows
  double switchRateHz = 0.0;    ///< whole-switch windows (outage partitions)
  double namRateHz = 0.0;       ///< NAM device fabric-link windows
  double crashRateHz = 0.0;     ///< whole-node crash + restart
  double stormRateHz = 0.0;     ///< correlated bursts (see header comment)

  // ---- window shape --------------------------------------------------------
  double windowMinSec = 0.005;
  double windowMaxSec = 0.05;
  /// Probability that a sampled window is a full outage (factor 0) rather
  /// than a bandwidth degradation.
  double downWeight = 0.5;
  double degradeMinFactor = 0.1;
  double degradeMaxFactor = 0.9;

  // ---- node crashes --------------------------------------------------------
  double crashRestartMinSec = 0.02;
  double crashRestartMaxSec = 0.1;

  // ---- storms --------------------------------------------------------------
  int stormMinSize = 2;  ///< events per burst, inclusive bounds
  int stormMaxSize = 4;
  double stormSpanSec = 0.02;  ///< burst members start within this span

  // ---- per-message noise ---------------------------------------------------
  /// Trial-constant drop/corrupt probabilities are drawn uniformly from
  /// [0, max]; 0 disables the class.
  double dropProbMax = 0.0;
  double corruptProbMax = 0.0;

  // ---- target filters (empty = every target of the class is eligible) ------
  std::vector<int> endpointTargets;
  std::vector<int> trunkTargets;
  std::vector<int> switchTargets;
  std::vector<int> namTargets;
  std::vector<int> crashTargets;  ///< node ids

  /// Range/consistency check; returns "" when valid, else a message naming
  /// the offending field.  Target filters are validated against a concrete
  /// machine by the generator, which knows the target space.
  [[nodiscard]] std::string validate() const;
};

ChaosProfile profileFromDesc(desc::Reader& r);
[[nodiscard]] desc::Value toDesc(const ChaosProfile& p);

}  // namespace cbsim::chaos
