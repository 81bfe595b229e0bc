#pragma once

// Shared test harness: a pmpi::World on a small DEEP-ER machine, plus a
// helper to run a closure on N ranks of a partition.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "pmpi/world.hpp"

namespace cbsim::testing {

struct World : pmpi::World {
  explicit World(hw::MachineConfig cfg = hw::MachineConfig::deepEr(4, 4),
                 pmpi::ProtocolParams params = {})
      : pmpi::World(std::move(cfg), params) {}

  /// Registers `fn` as an app, launches it on `nodes` nodes of `kind`,
  /// and runs the simulation to completion (throws on deadlock).
  sim::RunStats runRanks(int nodes, std::function<void(pmpi::Env&)> fn,
                         hw::NodeKind kind = hw::NodeKind::Cluster,
                         int procsPerNode = 1) {
    static int counter = 0;
    const std::string name = "test-app-" + std::to_string(counter++);
    registry.add(name, std::move(fn));
    rt.launch(name, kind, nodes, procsPerNode);
    return run();
  }
};

}  // namespace cbsim::testing
