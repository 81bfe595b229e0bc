// Ablation A6: BeeOND cache-domain modes.  Ranks write periodic output
// through (a) the global file system directly, (b) the BeeOND cache in
// synchronous mode, (c) asynchronous mode with a final drain.

#include <cstdio>
#include <vector>

#include "core/table.hpp"
#include "io/beeond.hpp"
#include "pmpi/world.hpp"

using namespace cbsim;

namespace {

enum class Path { Direct, Sync, Async };

double run(Path path, int ranks, int rounds, std::size_t bytes) {
  pmpi::World w(hw::MachineConfig::deepEr(8, 8));
  io::BeeGfs fs(w.machine, w.fabric);
  io::BeeondCache cache(w.machine, fs,
                        path == Path::Async ? io::BeeondCache::Mode::Async
                                            : io::BeeondCache::Mode::Sync);

  double out = 0;
  w.registry.add("w", [&](pmpi::Env& env) {
    const std::vector<std::byte> data(bytes, std::byte{0x3C});
    const std::string file = "/out." + std::to_string(env.rank());
    env.barrier(env.world());
    const double t0 = env.wtime();
    for (int r = 0; r < rounds; ++r) {
      if (path == Path::Direct) {
        auto f = fs.exists(file) ? fs.open(env, file) : fs.create(env, file);
        fs.write(env, f, r * bytes, pmpi::ConstBytes(data));
        fs.close(env, f);
      } else {
        cache.write(env, file, r * bytes, pmpi::ConstBytes(data));
      }
      // Compute between output rounds gives the async flush room to hide.
      hw::Work work;
      work.flops = 3e11;
      env.compute(work);
    }
    if (path == Path::Async) cache.drain(env);
    env.barrier(env.world());
    if (env.rank() == 0) out = env.wtime() - t0;
  });
  w.rt.launch("w", hw::NodeKind::Cluster, ranks);
  w.run();
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation A6: BeeOND cache domain (8 ranks x 6 rounds x 16 MiB + compute) ===\n\n");
  core::Table t({"I/O path", "wall [s]", "vs direct"});
  const double direct = run(Path::Direct, 8, 6, 16u << 20);
  const double sync = run(Path::Sync, 8, 6, 16u << 20);
  const double async = run(Path::Async, 8, 6, 16u << 20);
  t.addRow({"global fs direct", core::Table::num(direct), "1.00x"});
  t.addRow({"BeeOND sync", core::Table::num(sync),
            core::Table::num(direct / sync) + "x"});
  t.addRow({"BeeOND async", core::Table::num(async),
            core::Table::num(direct / async) + "x"});
  t.print();
  std::printf("\nAsync staging hides the spinning-disk flush behind compute;\n"
              "sync staging still pays it but keeps data cached for fast\n"
              "re-reads.  This is the III-C speedup deferred to ref [13].\n");
  return 0;
}
