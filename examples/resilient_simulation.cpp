// Resilient long-running simulation (paper section III-D): a job that
// checkpoints through the SCR stack (local NVMe every step, buddy copies,
// periodic global SIONlib containers on BeeGFS) survives injected node
// failures — a supervisor relaunches it and it fast-forwards from the
// newest restorable checkpoint instead of starting over.
//
//   $ ./resilient_simulation

#include <cstdio>
#include <cstring>
#include <vector>

#include "io/beegfs.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "pmpi/world.hpp"
#include "scr/failure.hpp"
#include "scr/scr.hpp"
#include "scr/supervisor.hpp"

using namespace cbsim;

int main() {
  constexpr int kTotalSteps = 40;
  constexpr int kRanks = 4;

  pmpi::World world(hw::MachineConfig::deepEr());
  io::BeeGfs fs(world.machine, world.fabric);
  io::LocalStore local(world.machine, world.fabric);
  io::NamStore nam(world.machine, world.fabric);

  scr::ScrConfig scrCfg;
  scrCfg.localEvery = 1;   // cheap, every step
  scrCfg.buddyEvery = 2;   // survives a node loss
  scrCfg.globalEvery = 8;  // survives anything
  scr::Scr ckpt(world.machine, fs, local, nam, scrCfg);

  bool finished = false;
  world.registry.add("sim", [&](pmpi::Env& env) {
    // State: step counter + 256 KiB of per-rank field data.
    std::vector<std::byte> state(256 << 10, std::byte{0});
    int start = 0;
    if (const auto resumed = ckpt.restart(env, env.world(), state)) {
      start = *resumed + 1;
      if (env.rank() == 0) {
        std::printf("  [t=%7.3f s] resumed from step %d (level: %s)\n",
                    env.wtime(), *resumed,
                    toString(*ckpt.lastRestoreLevel()));
      }
    }
    for (int step = start; step < kTotalSteps; ++step) {
      std::memset(state.data(), step & 0xff, 64);  // evolve
      env.ctx().delay(sim::SimTime::ms(25));       // one step of "physics"
      if (ckpt.needCheckpoint(step)) {
        ckpt.checkpoint(env, env.world(), step, pmpi::ConstBytes(state));
      }
    }
    if (env.rank() == 0) finished = true;
  });

  scr::FailureInjector chaos(world.rt, local);

  // Supervisor: launch, let failures happen, relaunch on every drain until
  // the run completes (at most 10 attempts).
  sim::Rng rng(2024);
  scr::Supervisor supervisor(
      world, {"sim", kRanks, 10, sim::SimTime::zero(), false},
      [&] { return finished; },
      [&](const pmpi::Job& job, int attempt) {
        std::printf("[supervisor] attempt %d starting at t=%.3f s\n", attempt,
                    world.engine.now().toSeconds());
        if (attempt <= 2) {
          // Two induced node failures; later attempts run clean.
          const auto at =
              world.engine.now() + sim::SimTime::ms(150 + 200 * attempt);
          const int victim = static_cast<int>(rng.below(kRanks));
          chaos.scheduleNodeFailure(job.id, at, victim);
        }
      });
  supervisor.start();
  world.run();

  std::printf("\nrun %s after %d attempt(s), %d failure(s) injected\n",
              finished ? "COMPLETED" : "FAILED", supervisor.attempts(),
              chaos.injected());
  std::printf("checkpoints written: %llu (%.1f MiB), restarts: %llu\n",
              static_cast<unsigned long long>(ckpt.stats().checkpoints),
              ckpt.stats().bytesWritten / (1 << 20),
              static_cast<unsigned long long>(ckpt.stats().restarts));
  return finished ? 0 : 1;
}
