// Quickstart: bring up a simulated DEEP-ER Cluster-Booster system, start an
// MPI application on the Cluster, offload a worker group onto the Booster
// with MPI_Comm_spawn, and exchange data through the inter-communicator —
// the paper's core usage pattern in ~80 lines.
//
//   $ ./quickstart

#include <cstdio>
#include <numeric>
#include <vector>

#include "pmpi/world.hpp"

using namespace cbsim;

int main() {
  // A machine per Table I of the paper: 16 Haswell Cluster nodes +
  // 8 KNL Booster nodes on a uniform EXTOLL fabric.
  pmpi::World world(hw::MachineConfig::deepEr());

  // The "Booster binary": spawned children compute partial sums and send
  // them to their parent through the intercommunicator.
  world.registry.add("worker", [](pmpi::Env& env) {
    const pmpi::Comm up = env.parent();
    std::vector<double> chunk(1024);
    env.recv(up, 0, /*tag=*/1, std::span<double>(chunk));

    // Charge some simulated compute on this KNL node.
    hw::Work w;
    w.flops = 5e9;
    w.vectorEfficiency = 0.9;
    env.compute(w);

    const double partial = std::accumulate(chunk.begin(), chunk.end(), 0.0);
    env.sendValue(up, 0, /*tag=*/2, partial);
    std::printf("  [%s rank %d on %s] partial sum %.1f at t=%.3f ms\n",
                hw::toString(env.node().kind), env.rank(),
                env.node().name.c_str(), partial, env.wtime() * 1e3);
  });

  // The "Cluster binary": scatters work to spawned Booster ranks.
  world.registry.add("driver", [](pmpi::Env& env) {
    constexpr int kWorkers = 4;
    std::printf("[driver on %s] spawning %d workers on the Booster...\n",
                env.node().name.c_str(), kWorkers);
    pmpi::SpawnOptions opts;
    opts.partition = hw::NodeKind::Booster;
    const pmpi::Comm inter = env.commSpawn("worker", kWorkers, opts);

    for (int r = 0; r < kWorkers; ++r) {
      std::vector<double> chunk(1024, r + 1.0);
      env.send(inter, r, 1, std::span<const double>(chunk));
    }
    double total = 0.0;
    for (int r = 0; r < kWorkers; ++r) {
      total += env.recvValue<double>(inter, r, 2);
    }
    std::printf("[driver] total = %.1f (expected %.1f), elapsed %.3f ms\n",
                total, 1024.0 * (1 + 2 + 3 + 4), env.wtime() * 1e3);
  });

  world.rt.launch("driver", hw::NodeKind::Cluster, 1);
  world.run();

  std::printf("fabric carried %llu messages / %.1f KiB\n",
              static_cast<unsigned long long>(world.fabric.stats().messages),
              world.fabric.stats().bytes / 1024.0);
  return 0;
}
