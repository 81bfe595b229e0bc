// Full-stack integration tests: real xPic physics built from the library
// components, checkpointed through the SCR stack, killed by injected node
// failures, relaunched, and carried to the fault-free run's exact final
// state — plus an I/O pipeline (xPic moments through SION onto BeeGFS) and
// a batch-driven campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "io/beegfs.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "io/sion.hpp"
#include "scr/failure.hpp"
#include "scr/scr.hpp"
#include "world_fixture.hpp"
#include "xpic/field_solver.hpp"
#include "xpic/particle_solver.hpp"

namespace {

using namespace cbsim;
using cbsim::testing::World;
using pmpi::Env;

xpic::XpicConfig miniCfg() {
  xpic::XpicConfig cfg = xpic::XpicConfig::tiny();
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.ppcReal = 4;
  return cfg;
}

/// What one run of the checkpointed PIC world ends with.
struct PicRun {
  int finishedStep = -1;
  int resumedFrom = -1;
  long long finalCount = 0;
  double finalKinetic = 0;
  /// Per rank: the six E/B arrays raw (ghosts included), then every
  /// species' packAll().
  std::array<std::vector<double>, 2> finalState;
};

/// A 2-rank PIC run (20 steps) with per-step SCR checkpoints of the full
/// state: E/B raw with ghosts and every particle.  With `injectFailure`, a
/// node failure kills it at step ~8 and destroys that node's NVMe, and a
/// relaunch resumes from the newest checkpoint.
PicRun runCheckpointedPic(bool injectFailure) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::LocalStore local(w.machine, w.fabric);
  io::NamStore nam(w.machine, w.fabric);
  scr::ScrConfig sc;
  sc.localEvery = 1;
  sc.buddyEvery = 2;
  sc.globalEvery = 0;
  scr::Scr ckpt(w.machine, fs, local, nam, sc);

  const xpic::XpicConfig cfg = miniCfg();
  constexpr int kSteps = 20;
  PicRun run;

  w.registry.add("pic", [&](Env& env) {
    const xpic::Grid2D grid(cfg, env.size(), env.rank());
    xpic::FieldArrays f(grid);
    f.bz.fill(cfg.b0z);
    xpic::FieldSolver solver(cfg, grid);
    xpic::HaloExchanger halo(env, env.world(), grid);
    xpic::ParticleSolver ps(cfg, grid, 42);

    // Restore: the checkpoint payload is [step, E/B arrays, nspec
    // populations...] packed as doubles.
    int start = 0;
    {
      std::vector<std::byte> blob;
      if (const auto step = ckpt.restart(env, env.world(), blob)) {
        start = *step + 1;
        run.resumedFrom = *step;
        std::span<const double> d(reinterpret_cast<const double*>(blob.data()),
                                  blob.size() / sizeof(double));
        std::size_t pos = 1;  // d[0] is the step, already consumed
        for (xpic::Field2D* e : f.emFields()) {
          const auto field = d.subspan(pos, e->raw().size());
          std::copy(field.begin(), field.end(), e->raw().begin());
          pos += field.size();
        }
        for (xpic::Species& s : ps.species()) {
          const auto n = static_cast<std::size_t>(d[pos++]);
          s.restoreFrom(d.subspan(pos, 5 * n));
          pos += 5 * n;
        }
      }
    }

    ps.particleMoments(f, halo, env);
    for (int step = start; step < kSteps; ++step) {
      solver.calculateE(f, halo, env, env.world());
      ps.particlesMove(f, env);
      ps.migrate(env, env.world());
      ps.particleMoments(f, halo, env);
      solver.calculateB(f, halo, env);
      env.computeDelay(sim::SimTime::ms(5));  // pad the step so the failure
                                              // lands mid-run deterministically

      std::vector<double> payload = {static_cast<double>(step)};
      for (xpic::Field2D* e : f.emFields()) {
        payload.insert(payload.end(), e->raw().begin(), e->raw().end());
      }
      for (const xpic::Species& s : ps.species()) {
        payload.push_back(static_cast<double>(s.count()));
        const auto packed = s.packAll();
        payload.insert(payload.end(), packed.begin(), packed.end());
      }
      ckpt.checkpoint(env, env.world(), step,
                      std::as_bytes(std::span<const double>(payload)));
    }

    std::vector<double>& state =
        run.finalState[static_cast<std::size_t>(env.rank())];
    for (xpic::Field2D* e : f.emFields()) {
      state.insert(state.end(), e->raw().begin(), e->raw().end());
    }
    for (const xpic::Species& s : ps.species()) {
      const auto packed = s.packAll();
      state.insert(state.end(), packed.begin(), packed.end());
    }
    const long long count = env.allreduceValue(
        env.world(), static_cast<std::int64_t>(ps.particleCount()),
        pmpi::Op::Sum);
    const double kin =
        env.allreduceValue(env.world(), ps.kineticEnergy(), pmpi::Op::Sum);
    if (env.rank() == 0) {
      run.finishedStep = kSteps;
      run.finalCount = count;
      run.finalKinetic = kin;
    }
  });

  if (injectFailure) {
    // Attempt 1: killed mid-run; node 0's NVMe is lost.
    const auto& first = w.rt.launch("pic", hw::NodeKind::Cluster, 2);
    scr::FailureInjector chaos(w.rt, local);
    chaos.scheduleNodeFailure(first.id, sim::SimTime::ms(42), /*dropNode=*/0);
    w.engine.run();
    EXPECT_EQ(chaos.injected(), 1);
    EXPECT_EQ(run.finishedStep, -1);
  }
  // Attempt 2 (or the only one): runs to completion.
  w.rt.launch("pic", hw::NodeKind::Cluster, 2);
  w.run();
  return run;
}

TEST(Integration, CheckpointedPicSurvivesNodeFailure) {
  // The relaunch must resume (not restart) and finish with the exact
  // particle census, and with exactly the fields and particles of the same
  // world run without the failure.
  const PicRun recovered = runCheckpointedPic(true);
  EXPECT_EQ(recovered.finishedStep, 20);
  EXPECT_GT(recovered.resumedFrom, 0);  // it really resumed mid-stream
  EXPECT_LT(recovered.resumedFrom, 19);
  const xpic::XpicConfig cfg = miniCfg();
  const long long expected = static_cast<long long>(cfg.cells()) *
                             (cfg.ppcReal / cfg.nspec) * cfg.nspec;
  EXPECT_EQ(recovered.finalCount, expected);  // census survived kill + restore
  EXPECT_GT(recovered.finalKinetic, 0.0);
  EXPECT_TRUE(std::isfinite(recovered.finalKinetic));

  const PicRun faultFree = runCheckpointedPic(false);
  EXPECT_EQ(faultFree.resumedFrom, -1);
  EXPECT_EQ(recovered.finalKinetic, faultFree.finalKinetic);
  for (std::size_t r = 0; r < 2; ++r) {
    const std::vector<double>& a = recovered.finalState[r];
    const std::vector<double>& b = faultFree.finalState[r];
    ASSERT_FALSE(b.empty());
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "rank " << r;
  }
}

TEST(Integration, PicMomentsFlowThroughSionOntoBeeGfs) {
  // The xPic output path of section III-C: per-rank moment snapshots
  // bundled into one SION container on BeeGFS, then read back and checked
  // for global charge neutrality by a separate analysis job.
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  const xpic::XpicConfig cfg = miniCfg();
  constexpr int kRanks = 4;

  w.registry.add("produce", [&](Env& env) {
    const xpic::Grid2D grid(cfg, env.size(), env.rank());
    xpic::FieldArrays f(grid);
    f.bz.fill(cfg.b0z);
    xpic::HaloExchanger halo(env, env.world(), grid);
    xpic::ParticleSolver ps(cfg, grid, 42);
    ps.particleMoments(f, halo, env);

    std::vector<double> rho;
    for (int j = 1; j <= grid.lny(); ++j) {
      for (int i = 1; i <= grid.lnx(); ++i) rho.push_back(f.rho.at(i, j));
    }
    auto sion = io::SionFile::createCollective(env, env.world(), fs,
                                               "/moments.sion",
                                               rho.size() * sizeof(double));
    sion.write(env, std::as_bytes(std::span<const double>(rho)));
    sion.close(env, env.world());
  });
  w.rt.launch("produce", hw::NodeKind::Booster, kRanks);
  w.run();

  double totalCharge = 1e9;
  w.registry.add("analyze", [&](Env& env) {
    auto sion =
        io::SionFile::openCollective(env, env.world(), fs, "/moments.sion");
    std::vector<double> rho(sion.chunkSize() / sizeof(double));
    sion.read(env, std::as_writable_bytes(std::span<double>(rho)));
    double local = 0;
    for (const double r : rho) local += r;
    const double sum = env.allreduceValue(env.world(), local, pmpi::Op::Sum);
    if (env.rank() == 0) totalCharge = sum * cfg.dx() * cfg.dy();
  });
  w.rt.launch("analyze", hw::NodeKind::Cluster, kRanks);
  w.run();
  EXPECT_NEAR(totalCharge, 0.0, 1e-9);  // quasi-neutral plasma, bit-exact I/O
}

TEST(Integration, BackToBackCampaignsShareTheMachine) {
  // Two xPic-style jobs on disjoint partitions run concurrently under the
  // same runtime; both finish, and the Cluster job is not slowed down by
  // the Booster job (independent resources — the paper's section II-A
  // argument).
  World w(hw::MachineConfig::deepEr(4, 4));
  double clusterAlone = 0, clusterShared = 0;

  const auto makeApp = [&](const std::string& name, double* wall) {
    w.registry.add(name, [&, wall](Env& env) {
      const double t0 = env.wtime();
      hw::Work work;
      work.flops = 5e11;
      for (int i = 0; i < 5; ++i) {
        env.compute(work);
        env.barrier(env.world());
      }
      if (env.rank() == 0) *wall = env.wtime() - t0;
    });
  };

  makeApp("solo", &clusterAlone);
  w.rt.launch("solo", hw::NodeKind::Cluster, 4);
  w.run();

  makeApp("shared-cluster", &clusterShared);
  double boosterWall = 0;
  makeApp("shared-booster", &boosterWall);
  w.rt.launch("shared-cluster", hw::NodeKind::Cluster, 4);
  w.rt.launch("shared-booster", hw::NodeKind::Booster, 4);
  w.run();

  EXPECT_GT(boosterWall, 0.0);
  EXPECT_NEAR(clusterShared, clusterAlone, 1e-6);  // no cross-partition drag
}

}  // namespace
