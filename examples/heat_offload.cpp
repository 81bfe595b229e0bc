// Task-offload example with the OmpSs-like runtime (paper section III-B):
// a 1D heat-diffusion pipeline where the heavy stencil sweeps are offloaded
// to the Booster via the DEEP offload pragma analogue, while analysis tasks
// run locally on the Cluster, overlapped by the task scheduler.
//
//   $ ./heat_offload

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "omps/task_runtime.hpp"
#include "pmpi/world.hpp"

using namespace cbsim;

namespace {

std::vector<std::byte> toBytes(const std::vector<double>& v) {
  const auto s = std::as_bytes(std::span<const double>(v));
  return {s.begin(), s.end()};
}

std::vector<double> toDoubles(pmpi::ConstBytes b) {
  std::vector<double> v(b.size() / sizeof(double));
  std::memcpy(v.data(), b.data(), v.size() * sizeof(double));
  return v;
}

}  // namespace

int main() {
  constexpr int kCells = 512;
  constexpr int kSweeps = 8;

  pmpi::World world(hw::MachineConfig::deepEr());
  omps::KernelRegistry kernels;

  // The stencil sweep: wide, vectorizable -> a Booster kernel.
  hw::Work sweepCost;
  sweepCost.flops = 2e10;
  sweepCost.vectorEfficiency = 0.9;
  kernels.add("diffuse", [](pmpi::ConstBytes in) {
    auto u = toDoubles(in);
    std::vector<double> next(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      const double l = u[i == 0 ? u.size() - 1 : i - 1];
      const double r = u[(i + 1) % u.size()];
      next[i] = u[i] + 0.25 * (l - 2 * u[i] + r);
    }
    return toBytes(next);
  }, sweepCost);

  // The analysis task: small, latency-sensitive -> stays on the Cluster.
  hw::Work statCost;
  statCost.serialOps = 1e7;
  kernels.add("stats", [](pmpi::ConstBytes in) {
    const auto u = toDoubles(in);
    double total = 0, peak = 0;
    for (const double x : u) {
      total += x;
      peak = std::max(peak, x);
    }
    return toBytes({total, peak});
  }, statCost);

  omps::TaskRuntime::registerWorker(world.registry, kernels);

  world.registry.add("heat", [&](pmpi::Env& env) {
    omps::TaskRuntime rt(env, kernels);

    std::vector<double> u(kCells, 0.0);
    u[kCells / 2] = 100.0;  // a hot spot
    rt.createRegion("field", toBytes(u));
    rt.createRegion("stats", 2 * sizeof(double));

    for (int s = 0; s < kSweeps; ++s) {
      // Offload the sweep; the stats task of the *previous* state runs on
      // this Cluster node, overlapped by the wave scheduler.
      rt.submit("stats", {omps::in("field"), omps::out("stats")});
      rt.submitOffload("diffuse", {omps::inout("field")},
                       hw::NodeKind::Booster);
    }
    rt.wait();

    const auto st = toDoubles(rt.regionData("stats"));
    const auto field = toDoubles(rt.regionData("field"));
    double total = 0;
    for (const double x : field) total += x;
    std::printf("after %d sweeps: heat total %.2f (conserved: %.2f), peak %.2f\n",
                kSweeps, total, 100.0, st[1]);
    std::printf("tasks executed %d (offloaded %d) in %.3f ms simulated\n",
                rt.tasksExecuted(), rt.tasksOffloaded(), env.wtime() * 1e3);
  });

  world.rt.launch("heat", hw::NodeKind::Cluster, 1);
  world.run();
  return 0;
}
