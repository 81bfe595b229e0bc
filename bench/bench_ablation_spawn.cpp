// Ablation A7: MPI_Comm_spawn cost versus spawned job size, and its
// amortization over the xPic run length — justification for treating the
// offload setup as a one-time cost in the C+B mode.

#include <cstdio>

#include "core/table.hpp"
#include "pmpi/world.hpp"
#include "xpic/driver.hpp"

using namespace cbsim;

namespace {

double spawnSec(int nprocs) {
  pmpi::World w(hw::MachineConfig::deepEr(16, 8));

  double out = 0;
  w.registry.add("child", [](pmpi::Env&) {});
  w.registry.add("parent", [&](pmpi::Env& env) {
    const double t0 = env.wtime();
    pmpi::SpawnOptions opts;
    opts.partition = hw::NodeKind::Booster;
    const pmpi::Comm inter = env.commSpawn("child", nprocs, opts);
    out = env.wtime() - t0;
    (void)inter;
  });
  w.rt.launch("parent", hw::NodeKind::Cluster, 1);
  w.run();
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation A7: MPI_Comm_spawn cost ===\n\n");
  core::Table t({"spawned procs", "spawn time [ms]"});
  for (const int n : {1, 2, 4, 8}) {
    t.addRow({std::to_string(n), core::Table::num(spawnSec(n) * 1e3, 2)});
  }
  t.print();

  xpic::XpicConfig cfg = xpic::XpicConfig::tableII();
  const auto r = runXpic(xpic::Mode::ClusterBooster, 8, cfg);
  const double spawn = spawnSec(8);
  std::printf("\nAt 8 nodes/solver the spawn costs %.1f ms of a %.2f s xPic\n"
              "run — %.2f%% overhead, a one-time price for the partitioned\n"
              "mode.  Short-lived offloads would feel it; the OmpSs layer\n"
              "therefore keeps its workers alive across tasks.\n",
              spawn * 1e3, r.wallSec, 100.0 * spawn / r.wallSec);
  return 0;
}
