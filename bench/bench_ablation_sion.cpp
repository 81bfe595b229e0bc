// Ablation A5: SIONlib container bundling vs task-local files.
// N ranks each write a task-local stream; once as N separate BeeGFS files,
// once bundled into one SION container.  Reports wall time and metadata
// load — the contention SIONlib exists to remove (paper section III-C).

#include <cstdio>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "io/beegfs.hpp"
#include "io/sion.hpp"
#include "pmpi/world.hpp"

using namespace cbsim;

namespace {

struct Result {
  double wallSec;
  std::uint64_t metaOps;
};

Result run(int ranks, std::size_t bytesPerRank, bool useSion) {
  pmpi::World w(hw::MachineConfig::deepEr(16, 8));
  io::BeeGfs fs(w.machine, w.fabric);

  Result out{};
  w.registry.add("w", [&](pmpi::Env& env) {
    const std::vector<std::byte> data(bytesPerRank, std::byte{0x11});
    env.barrier(env.world());
    const double t0 = env.wtime();
    if (useSion) {
      auto sf = io::SionFile::createCollective(env, env.world(), fs,
                                               "/out.sion", bytesPerRank);
      sf.write(env, pmpi::ConstBytes(data));
      sf.close(env, env.world());
    } else {
      auto f = fs.create(env, "/task." + std::to_string(env.rank()));
      fs.write(env, f, 0, pmpi::ConstBytes(data));
      fs.close(env, f);
    }
    env.barrier(env.world());
    if (env.rank() == 0) out.wallSec = env.wtime() - t0;
  });
  w.rt.launch("w", hw::NodeKind::Cluster, ranks);
  w.run();
  out.metaOps = fs.stats().metaOps;
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation A5: task-local files vs SIONlib container ===\n");

  std::printf("\nSmall task-local streams (64 KiB/rank, metadata-bound —\n"
              "the checkpoint/diagnostics pattern SIONlib targets):\n");
  core::Table small({"ranks", "task-local [ms]", "meta ops", "SION [ms]",
                     "meta ops", "speedup"});
  for (const int n : {2, 4, 8, 16}) {
    const Result local = run(n, 64u << 10, false);
    const Result sion = run(n, 64u << 10, true);
    small.addRow({std::to_string(n), core::Table::num(local.wallSec * 1e3, 1),
                  std::to_string(local.metaOps),
                  core::Table::num(sion.wallSec * 1e3, 1),
                  std::to_string(sion.metaOps),
                  core::Table::num(local.wallSec / sion.wallSec) + "x"});
  }
  small.print();

  std::printf("\nLarge streams (8 MiB/rank, disk-bandwidth-bound — both\n"
              "paths converge on the storage targets' rate):\n");
  core::Table big({"ranks", "task-local [ms]", "SION [ms]", "speedup"});
  for (const int n : {4, 16}) {
    const Result local = run(n, 8u << 20, false);
    const Result sion = run(n, 8u << 20, true);
    big.addRow({std::to_string(n), core::Table::num(local.wallSec * 1e3, 1),
                core::Table::num(sion.wallSec * 1e3, 1),
                core::Table::num(local.wallSec / sion.wallSec) + "x"});
  }
  big.print();
  std::printf("\nThe container keeps the serialized metadata server out of\n"
              "the small-write path: one create+close for the whole job\n"
              "instead of one per task.\n");
  return 0;
}
