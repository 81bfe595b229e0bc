#pragma once

// Replica worlds: the worlds of the fig8, halo and resilience campaign
// families (src/campaign/grids.cpp, src/xpic/driver.cpp), rebuilt from the
// public layer constructors one layer at a time so each layer's host time
// can be spanned.  A replica is only trusted when its scenario results
// reproduce the campaign report byte for byte; main.cpp checks that before
// it prints a per-layer number.

#include <functional>
#include <string>
#include <vector>

#include "campaign/desc.hpp"
#include "campaign/scenario.hpp"
#include "obs/tracer.hpp"

namespace cbsim::e2e {

/// Host seconds per layer boundary, summed over the worlds built.
struct LayerSpans {
  double machineBuild = 0;     ///< hw::Machine
  double fabricBuild = 0;      ///< extoll::Fabric
  double runtimeBuild = 0;     ///< rm::ResourceManager + pmpi::Runtime
  double launch = 0;           ///< app registration done; Runtime::launch
  double run = 0;              ///< sim::Engine::run
  double runtimeTeardown = 0;  ///< ~pmpi::Runtime
  double engineTeardown = 0;   ///< fabric, machine and engine destruction
};

/// Structural counts read from the replica worlds' objects after their run
/// (fig8's report carries no mem.* or route-cache numbers).
struct WorldCounts {
  double routeCacheHits = 0;
  double routeCacheEntries = 0;
  double payloadArenaPeakBytes = 0;
  double stackReserveBytes = 0;
};

enum class Stage {
  LaunchOnly,  ///< build and launch, then tear down without running
  Run,         ///< build, launch, run to completion, tear down
};

/// One scenario of a campaign, rebuildable as a replica world.
struct ReplicaCase {
  std::string name;  ///< must equal the campaign's scenario name
  std::uint64_t seed = 0;
  /// First scenario of its world shape; setup_s launches exactly these.
  bool newShape = true;
  /// Builds the world; when `tracer` is non-null it is attached the way
  /// the campaign runner attaches its metrics-only tracer.  Returns the
  /// scenario's values (empty for Stage::LaunchOnly).  Throws on the same
  /// conditions the campaign scenario throws on.
  std::function<campaign::Values(Stage stage, obs::Tracer* tracer,
                                 LayerSpans& spans, WorldCounts& counts)>
      build;
};

/// The replica of every scenario `spec` defines, in campaign definition
/// order.  Throws std::invalid_argument for a family without replicas.
[[nodiscard]] std::vector<ReplicaCase> replicaCases(
    const campaign::CampaignSpec& spec);

}  // namespace cbsim::e2e
