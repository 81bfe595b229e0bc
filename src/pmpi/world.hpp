#pragma once

// One simulated world: engine, machine, fabric, resource manager, app
// registry and pmpi runtime, built in that order.  This is the single
// construction path (DESIGN §8): campaign scenarios, xPic runs, mc
// schedules, benches, tests and examples all build their worlds here.

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "extoll/fabric.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pmpi/env.hpp"
#include "pmpi/runtime.hpp"
#include "rm/resource_manager.hpp"
#include "sim/engine.hpp"

namespace cbsim::pmpi {

class World {
  // Declared first, so it outlives the fabric that points at it.
  fault::FaultPlan faultPlan_;

 public:
  /// `tracer` (may be null) is attached before the machine is built, so
  /// every layer records onto it; it must outlive the world.
  explicit World(hw::MachineConfig machineConfig, ProtocolParams protocol = {},
                 std::uint64_t seed = sim::Engine::kDefaultSeed,
                 obs::Tracer* tracer = nullptr,
                 extoll::FabricOptions fabricOptions = {})
      : engine(seed),
        machine(withTracer(engine, tracer), std::move(machineConfig)),
        fabric(machine, fabricOptions),
        rm(machine),
        rt(machine, fabric, rm, registry, protocol) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Engine engine;
  hw::Machine machine;
  extoll::Fabric fabric;
  rm::ResourceManager rm;
  AppRegistry registry;
  Runtime rt;

  /// Keeps `plan` for the world's lifetime and points the fabric at it
  /// when it can affect traffic; an inert plan leaves the fabric
  /// fault-free.
  void setFaultPlan(fault::FaultPlan plan) {
    faultPlan_ = std::move(plan);
    fabric.setFaultPlan(faultPlan_.active() ? &faultPlan_ : nullptr);
  }
  [[nodiscard]] const fault::FaultPlan& faultPlan() const { return faultPlan_; }

  /// Runs the simulation to completion; throws std::runtime_error naming
  /// the first blocked process when it deadlocks.
  sim::RunStats run() {
    sim::RunStats st = engine.run();
    if (st.deadlocked()) {
      throw std::runtime_error(
          "simulation deadlocked; first blocked process: " +
          st.blockedProcesses.front());
    }
    return st;
  }

 private:
  static sim::Engine& withTracer(sim::Engine& e, obs::Tracer* tracer) {
    e.setTracer(tracer);
    return e;
  }
};

}  // namespace cbsim::pmpi
