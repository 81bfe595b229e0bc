// Ablation A9: Modular Supercomputing (DEEP-EST outlook, paper section VI).
// A three-stage workflow — ingest/preprocess, simulate, analyze — runs on
// the three-module DEEP-EST configuration.  Compares (a) everything on one
// module vs (b) each stage placed on its best module, spawned as a
// pipeline across Cluster, Booster and the large-memory Analytics module,
// plus the partition planner's verdict per stage.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/table.hpp"
#include "pmpi/world.hpp"

using namespace cbsim;

namespace {

// Per-stage work profiles.
hw::Work ingestWork() {
  hw::Work w;  // branchy parsing: scalar, latency-bound
  w.serialOps = 2e9;
  return w;
}
hw::Work simulateWork() {
  hw::Work w;  // wide stencil sweeps: SIMD heaven
  w.flops = 2e12;
  w.vectorEfficiency = 0.85;
  return w;
}
hw::Work analyzeWork() {
  hw::Work w;  // big in-memory reduction: bandwidth-bound
  w.bytes = 3e11;
  w.fitsFastMemory = false;
  return w;
}

double runWorkflow(bool modular) {
  pmpi::World w(hw::MachineConfig::deepEst(4, 4, 2));
  double out = 0;

  w.registry.add("stage", [&](pmpi::Env& env) {
    const pmpi::Comm up = env.parent();
    const int stage = env.recvValue<int>(up, 0, 1);
    env.compute(stage == 0 ? ingestWork()
                           : (stage == 1 ? simulateWork() : analyzeWork()));
    env.sendValue(up, 0, 2, stage);
  });

  w.registry.add("pilot", [&](pmpi::Env& env) {
    const double t0 = env.wtime();
    const hw::NodeKind target[3] = {
        hw::NodeKind::Cluster,
        modular ? hw::NodeKind::Booster : hw::NodeKind::Cluster,
        modular ? hw::NodeKind::Analytics : hw::NodeKind::Cluster};
    for (int stage = 0; stage < 3; ++stage) {
      pmpi::SpawnOptions opts;
      opts.partition = target[stage];
      const pmpi::Comm inter = env.commSpawn("stage", 1, opts);
      env.sendValue(inter, 0, 1, stage);
      (void)env.recvValue<int>(inter, 0, 2);
    }
    out = env.wtime() - t0;
  });
  w.rt.launch("pilot", hw::NodeKind::Cluster, 1);
  w.run();
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation A9: Modular Supercomputing (DEEP-EST) workflow ===\n\n");

  // Planner's per-stage verdict on the three-module machine.
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::deepEst(4, 4, 2));
  core::PartitionPlanner planner(machine);
  std::vector<core::CodeRegion> stages(3);
  stages[0] = {"ingest", ingestWork(), 0, 0, 0, 1.0};
  stages[1] = {"simulate", simulateWork(), 0, 0, 0, 8.0};
  stages[2] = {"analyze", analyzeWork(), 0, 0, 0, 300.0};  // needs big memory
  core::Table plan({"stage", "cluster [s]", "booster [s]", "analytics [s]",
                    "-> module"});
  for (const auto& p : planner.plan(stages)) {
    const auto cell = [&](hw::NodeKind k) {
      const double v = p.perModule.at(k);
      return std::isinf(v) ? std::string("-") : core::Table::num(v, 3);
    };
    plan.addRow({p.region, cell(hw::NodeKind::Cluster),
                 cell(hw::NodeKind::Booster), cell(hw::NodeKind::Analytics),
                 std::string(hw::toString(p.module))});
  }
  plan.print();

  const double mono = runWorkflow(false);
  const double modular = runWorkflow(true);
  std::printf("\nworkflow on Cluster only : %.2f s\n", mono);
  std::printf("workflow across modules  : %.2f s  (%.2fx)\n", modular,
              mono / modular);
  std::printf("\nThe generalization of the Cluster-Booster idea: any number\n"
              "of modules, each stage on the hardware it actually needs.\n");
  return 0;
}
