// Tests for the SCR-like multi-level checkpoint/restart stack: cadence,
// per-level placement, restore preference, node-failure survival, a full
// kill-and-resume cycle with injected failures, and the Young/Daly
// interval helper.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "scr/failure.hpp"
#include "scr/scr.hpp"
#include "scr/supervisor.hpp"
#include "world_fixture.hpp"

namespace {

using namespace cbsim;
using cbsim::testing::World;
using pmpi::Env;

struct ScrStack {
  World w;
  io::BeeGfs fs;
  io::LocalStore local;
  io::NamStore nam;

  explicit ScrStack(hw::MachineConfig cfg = hw::MachineConfig::deepEr(4, 4))
      : w(std::move(cfg)), fs(w.machine, w.fabric), local(w.machine, w.fabric),
        nam(w.machine, w.fabric) {}

  scr::Scr make(scr::ScrConfig cfg = {}) {
    return scr::Scr(w.machine, fs, local, nam, cfg);
  }
};

std::vector<std::byte> stateOf(int rank, int step, std::size_t n = 4096) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((rank * 7 + step * 31 + static_cast<int>(i)) & 0xff);
  }
  return v;
}

TEST(Scr, CadenceFollowsConfig) {
  ScrStack s;
  scr::ScrConfig cfg;
  cfg.localEvery = 2;
  cfg.buddyEvery = 0;
  cfg.globalEvery = 6;
  auto scrLib = s.make(cfg);
  EXPECT_TRUE(scrLib.needCheckpoint(0));
  EXPECT_FALSE(scrLib.needCheckpoint(1));
  EXPECT_TRUE(scrLib.needCheckpoint(2));
  EXPECT_TRUE(scrLib.needCheckpoint(6));
}

TEST(Scr, LevelsLandInTheRightPlaces) {
  ScrStack s;
  scr::ScrConfig cfg;
  cfg.localEvery = 1;
  cfg.buddyEvery = 1;
  cfg.globalEvery = 1;
  cfg.namEvery = 1;
  auto scrLib = s.make(cfg);
  std::vector<int> nodes(2, -1);
  s.w.runRanks(2, [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    const auto st = stateOf(env.rank(), 0);
    scrLib.checkpoint(env, env.world(), 0, pmpi::ConstBytes(st));
  });
  // Local copies on own nodes; buddy copies on partners; global container
  // on BeeGFS; NAM blobs on the devices.
  EXPECT_TRUE(s.local.has(nodes[0], "/scr/s0/r0"));
  EXPECT_TRUE(s.local.has(nodes[1], "/scr/s0/r0+buddy"));
  EXPECT_TRUE(s.local.has(nodes[0], "/scr/s0/r1+buddy"));
  EXPECT_TRUE(s.fs.exists("/scr/ckpt_0.sion"));
  EXPECT_GT(s.nam.usedBytes(0), 0u);
  EXPECT_EQ(scrLib.stats().checkpoints, 8u);  // 2 ranks x 4 levels
}

TEST(Scr, RestartPrefersNewestStepAndLocalLevel) {
  ScrStack s;
  auto scrLib = s.make();
  s.w.runRanks(2, [&](Env& env) {
    for (int step = 0; step <= 4; ++step) {
      scrLib.checkpoint(env, env.world(), step,
                        pmpi::ConstBytes(stateOf(env.rank(), step)));
    }
    std::vector<std::byte> back;
    const auto step = scrLib.restart(env, env.world(), back);
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(*step, 4);
    EXPECT_EQ(back, stateOf(env.rank(), 4));
    EXPECT_EQ(scrLib.lastRestoreLevel(), scr::Level::Local);
  });
}

TEST(Scr, BuddySurvivesNodeLoss) {
  ScrStack s;
  scr::ScrConfig cfg;
  cfg.localEvery = 1;
  cfg.buddyEvery = 1;
  cfg.globalEvery = 0;
  auto scrLib = s.make(cfg);
  std::vector<int> nodes(2, -1);
  s.w.runRanks(2, [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    scrLib.checkpoint(env, env.world(), 7,
                      pmpi::ConstBytes(stateOf(env.rank(), 7)));
  });

  s.local.dropNode(nodes[0]);  // rank 0's node dies

  s.w.runRanks(2, [&](Env& env) {
    std::vector<std::byte> back;
    const auto step = scrLib.restart(env, env.world(), back);
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(*step, 7);
    EXPECT_EQ(back, stateOf(env.rank(), 7));
  });
  // Local level is gone for rank 0, so the common level was Buddy.
  EXPECT_EQ(scrLib.lastRestoreLevel(), scr::Level::Buddy);
}

TEST(Scr, GlobalSurvivesLosingEverything) {
  ScrStack s;
  scr::ScrConfig cfg;
  cfg.localEvery = 1;
  cfg.buddyEvery = 1;
  cfg.globalEvery = 1;
  auto scrLib = s.make(cfg);
  std::vector<int> nodes(2, -1);
  s.w.runRanks(2, [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    scrLib.checkpoint(env, env.world(), 3,
                      pmpi::ConstBytes(stateOf(env.rank(), 3)));
  });
  s.local.dropNode(nodes[0]);
  s.local.dropNode(nodes[1]);  // both nodes dead: only BeeGFS survives

  s.w.runRanks(2, [&](Env& env) {
    std::vector<std::byte> back;
    const auto step = scrLib.restart(env, env.world(), back);
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(back, stateOf(env.rank(), 3));
  });
  EXPECT_EQ(scrLib.lastRestoreLevel(), scr::Level::Global);
}

TEST(Scr, RestartWithNothingRecordedFails) {
  ScrStack s;
  auto scrLib = s.make();
  s.w.runRanks(2, [&](Env& env) {
    std::vector<std::byte> back;
    EXPECT_FALSE(scrLib.restart(env, env.world(), back).has_value());
  });
}

TEST(Scr, CostEstimatesOrderLevelsSensibly) {
  ScrStack s;
  auto scrLib = s.make();
  const double mb = 64e6;
  EXPECT_LT(scrLib.estimateCost(scr::Level::Local, mb),
            scrLib.estimateCost(scr::Level::Buddy, mb));
  EXPECT_LT(scrLib.estimateCost(scr::Level::Nam, mb),
            scrLib.estimateCost(scr::Level::Global, mb));
}

TEST(YoungDaly, IntervalScalesWithSqrt) {
  using sim::SimTime;
  const SimTime c = SimTime::sec(10);
  const SimTime mtbf = SimTime::sec(20000);
  const SimTime t = scr::youngDalyInterval(c, mtbf);
  EXPECT_NEAR(t.toSeconds(), std::sqrt(2.0 * 10 * 20000), 1e-6);
  // 4x the MTBF -> 2x the interval.
  EXPECT_NEAR(scr::youngDalyInterval(c, 4 * mtbf).toSeconds(),
              2 * t.toSeconds(), 1e-6);
}

// ---- Full kill-and-resume cycle --------------------------------------------------

TEST(Failure, InjectedNodeFailureKillsJob) {
  ScrStack s;
  int stepsDone = 0;
  s.w.registry.add("victim", [&](Env& env) {
    for (int step = 0; step < 100; ++step) {
      env.ctx().delay(sim::SimTime::ms(10));
      if (env.rank() == 0) stepsDone = step + 1;
    }
  });
  const auto& job = s.w.rt.launch("victim", hw::NodeKind::Cluster, 2);
  scr::FailureInjector inj(s.w.rt, s.local);
  inj.scheduleNodeFailure(job.id, sim::SimTime::ms(255), /*dropNode=*/0);
  s.w.engine.run();
  EXPECT_EQ(inj.injected(), 1);
  EXPECT_TRUE(s.w.rt.jobDone(job.id));
  EXPECT_LT(stepsDone, 30);  // killed ~ a quarter of the way in
  // Allocation was released on drain.
  EXPECT_EQ(s.w.rm.freeCount(hw::NodeKind::Cluster), 4);
}

TEST(Failure, CheckpointRestartResumesAcrossFailure) {
  ScrStack s;
  scr::ScrConfig cfg;
  cfg.localEvery = 1;
  cfg.buddyEvery = 2;
  cfg.globalEvery = 0;
  auto scrLib = s.make(cfg);

  constexpr int kTotalSteps = 20;
  int finishedAtStep = -1;

  // The application: state is a step counter + payload; checkpoint every
  // step, restart from SCR when relaunched.
  s.w.registry.add("app", [&](Env& env) {
    std::vector<std::byte> state(1024, std::byte{0});
    int startStep = 0;
    if (const auto resumed = scrLib.restart(env, env.world(), state)) {
      startStep = *resumed + 1;
    }
    for (int step = startStep; step < kTotalSteps; ++step) {
      state[0] = static_cast<std::byte>(step);  // evolve the state
      env.ctx().delay(sim::SimTime::ms(5));
      scrLib.checkpoint(env, env.world(), step, pmpi::ConstBytes(state));
    }
    if (env.rank() == 0) finishedAtStep = kTotalSteps;
  });

  // First attempt dies mid-run, losing node 0's NVMe (local level of the
  // surviving steps included).
  const auto& first = s.w.rt.launch("app", hw::NodeKind::Cluster, 2);
  scr::FailureInjector inj(s.w.rt, s.local);
  inj.scheduleNodeFailure(first.id, sim::SimTime::ms(42), /*dropNode=*/0);
  s.w.engine.run();
  ASSERT_EQ(inj.injected(), 1);
  EXPECT_EQ(finishedAtStep, -1);

  // Supervisor relaunches; the run resumes past the failure point instead
  // of starting over.
  s.w.rt.launch("app", hw::NodeKind::Cluster, 2);
  const auto st = s.w.engine.run();
  EXPECT_FALSE(st.deadlocked());
  EXPECT_EQ(finishedAtStep, kTotalSteps);
  EXPECT_GE(scrLib.stats().restarts, 1u);
  // The restore could not use rank 0's local copies (node dropped).
  EXPECT_EQ(scrLib.lastRestoreLevel(), scr::Level::Buddy);
}

// ---- FailureInjector properties ---------------------------------------------------

TEST(Failure, SameInstantFailureBeatsMessageDelivery) {
  // A node death and a message delivery at the same simulated instant: the
  // death must win, or a failure instant quantized onto an event boundary
  // (as the mc explorer does) would leak one last delivery out of a dead
  // node.  First learn the exact receive-completion instant from a clean,
  // deterministic run.
  sim::SimTime tRecv = sim::SimTime::zero();
  {
    ScrStack probe;
    probe.w.registry.add("probe", [&](Env& env) {
      if (env.rank() == 0) {
        env.sendValue(env.world(), 1, 1, 7);
      } else {
        (void)env.recvValue<int>(env.world(), 0, 1);
        tRecv = env.ctx().now();
      }
    });
    probe.w.rt.launch("probe", hw::NodeKind::Cluster, 2);
    probe.w.run();
    ASSERT_GT(tRecv.picos(), 0);
  }

  // Bit-identical rerun, except the receiver's node dies at exactly tRecv.
  // The failure is armed only shortly before the tie, when the delivery
  // is already in flight — insertion order must not matter.
  const auto runWithFailureAt = [](sim::SimTime failAt,
                                   int expectInjected) -> bool {
    ScrStack s;
    bool delivered = false;
    std::vector<int> nodes(2, -1);
    s.w.registry.add("probe", [&](Env& env) {
      nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
      if (env.rank() == 0) {
        env.sendValue(env.world(), 1, 1, 7);
      } else {
        (void)env.recvValue<int>(env.world(), 0, 1);
        delivered = true;
      }
    });
    const auto& job = s.w.rt.launch("probe", hw::NodeKind::Cluster, 2);
    scr::FailureInjector inj(s.w.rt, s.local);
    s.w.engine.scheduleAt(failAt - sim::SimTime::ns(100), [&] {
      inj.scheduleNodeFailure(job.id, failAt, nodes[1]);
    });
    s.w.engine.run();
    EXPECT_EQ(inj.injected(), expectInjected);
    EXPECT_TRUE(s.w.rt.jobDone(job.id));
    return delivered;
  };

  EXPECT_FALSE(runWithFailureAt(tRecv, /*expectInjected=*/1))
      << "delivery leaked out of the tie";
  // One pico later the delivery legitimately precedes the death — and by
  // then the job has drained, so the armed kill correctly no-ops.
  EXPECT_TRUE(runWithFailureAt(tRecv + sim::SimTime::ps(1),
                               /*expectInjected=*/0));
}

TEST(Failure, AfterJobCompletionIsNoOp) {
  ScrStack s;
  std::vector<int> nodes(2, -1);
  const auto blob = stateOf(0, 0, 64);
  s.w.registry.add("quick", [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    // Seed this rank's NVMe so we can verify it is NOT dropped.
    s.local.write(env, "/survives", pmpi::ConstBytes(blob));
    for (int step = 0; step < 5; ++step) {
      env.ctx().delay(sim::SimTime::ms(10));
    }
  });
  const auto& job = s.w.rt.launch("quick", hw::NodeKind::Cluster, 2);
  scr::FailureInjector inj(s.w.rt, s.local);
  inj.scheduleNodeFailure(job.id, sim::SimTime::ms(200), /*dropNode=*/0);
  s.w.engine.run();
  // The job finished at ~50ms; the 200ms failure must be a pure no-op.
  EXPECT_EQ(inj.injected(), 0);
  EXPECT_TRUE(s.w.rt.jobDone(job.id));
  EXPECT_EQ(s.w.rm.freeCount(hw::NodeKind::Cluster), 4);
  // The would-be victim node keeps its NVMe contents.
  EXPECT_TRUE(s.local.has(nodes[0], "/survives"));
  EXPECT_TRUE(s.local.has(nodes[1], "/survives"));
}

TEST(Failure, InjectedCountIsExact) {
  ScrStack s;
  s.w.registry.add("longrun", [&](Env& env) {
    for (int step = 0; step < 200; ++step) {
      env.ctx().delay(sim::SimTime::ms(10));
    }
  });
  scr::FailureInjector inj(s.w.rt, s.local);
  // Several failures aimed at the same job: only the first one fires; the
  // rest see jobDone() and are no-ops.
  const auto& first = s.w.rt.launch("longrun", hw::NodeKind::Cluster, 2);
  inj.scheduleNodeFailure(first.id, sim::SimTime::ms(20), 0);
  inj.scheduleNodeFailure(first.id, sim::SimTime::ms(40), 1);
  inj.scheduleNodeFailure(first.id, sim::SimTime::ms(60), 0);
  s.w.engine.run();
  EXPECT_EQ(inj.injected(), 1);
  // Each subsequent killed job adds exactly one.
  for (int k = 0; k < 3; ++k) {
    const auto& job = s.w.rt.launch("longrun", hw::NodeKind::Cluster, 2);
    inj.scheduleNodeFailure(job.id, s.w.engine.now() + sim::SimTime::ms(30), 0);
    s.w.engine.run();
    EXPECT_EQ(inj.injected(), 2 + k);
  }
}

TEST(Failure, RejectsNonPositiveMtbf) {
  sim::Rng rng(1);
  EXPECT_THROW(
      scr::FailureInjector::sampleFailureTime(rng, sim::SimTime::zero()),
      std::invalid_argument);
  EXPECT_THROW(
      scr::FailureInjector::sampleFailureTime(rng, sim::SimTime::seconds(-1)),
      std::invalid_argument);
}

TEST(Failure, RejectsFailureScheduledInThePast) {
  ScrStack s;
  s.w.registry.add("tick", [&](Env& env) {
    env.ctx().delay(sim::SimTime::ms(50));
  });
  const auto& job = s.w.rt.launch("tick", hw::NodeKind::Cluster, 1);
  s.w.engine.run();  // now() is ~50ms
  scr::FailureInjector inj(s.w.rt, s.local);
  EXPECT_THROW(inj.scheduleNodeFailure(job.id, sim::SimTime::ms(1), 0),
               std::invalid_argument);
}

TEST(Failure, MarksNodeOutOfServiceUntilRepaired) {
  ScrStack s;
  s.w.registry.add("longrun", [&](Env& env) {
    for (int step = 0; step < 100; ++step) {
      env.ctx().delay(sim::SimTime::ms(10));
    }
  });
  scr::FailureInjector inj(s.w.rt, s.local, &s.w.rm,
                           /*repairAfter=*/sim::SimTime::ms(300));
  const auto& job = s.w.rt.launch("longrun", hw::NodeKind::Cluster, 2);
  const int victim = s.w.rt.proc(job.procIdx[0]).nodeId;
  inj.scheduleNodeFailure(job.id, sim::SimTime::ms(55), victim);
  bool failedDuringOutage = false;
  s.w.engine.scheduleAt(sim::SimTime::ms(100), [&] {
    failedDuringOutage = s.w.rm.isFailed(victim);
  });
  s.w.engine.run();
  // The node was out of the pool between failure and repair, and is back
  // once the MTTR elapsed.
  EXPECT_TRUE(failedDuringOutage);
  EXPECT_FALSE(s.w.rm.isFailed(victim));
  EXPECT_EQ(s.w.rm.freeCount(hw::NodeKind::Cluster), 4);
  EXPECT_EQ(inj.lastFailureAt(), sim::SimTime::ms(55));
}

TEST(Scr, RestoreFollowsRecordedPlacementAfterRelaunch) {
  // The scenario the recovery loop depends on: a job checkpoints, its node
  // dies, and the relaunch lands on a *different* node set.  The NVMe
  // copies live where the ranks ran at checkpoint time, so the restore
  // must follow the recorded placement — the current node mapping knows
  // nothing about them.
  ScrStack s;
  scr::ScrConfig cfg;
  cfg.localEvery = 1;
  cfg.buddyEvery = 1;
  cfg.globalEvery = 0;
  auto scrLib = s.make(cfg);
  std::vector<int> nodes(2, -1);
  s.w.runRanks(2, [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    scrLib.checkpoint(env, env.world(), 5,
                      pmpi::ConstBytes(stateOf(env.rank(), 5)));
  });

  // Rank 0's node dies and leaves the pool: the relaunch shifts onto
  // surviving + spare nodes.
  s.local.dropNode(nodes[0]);
  s.w.rm.markFailed(nodes[0]);

  std::vector<int> relaunchNodes(2, -1);
  s.w.runRanks(2, [&](Env& env) {
    relaunchNodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    std::vector<std::byte> back;
    const auto step = scrLib.restart(env, env.world(), back);
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(*step, 5);
    EXPECT_EQ(back, stateOf(env.rank(), 5));
  });
  // Placement really changed — otherwise this test shows nothing.
  EXPECT_NE(relaunchNodes, nodes);
  EXPECT_GE(scrLib.stats().restarts, 1u);
}

TEST(Failure, SampleFailureTimeIsExponentialWithMtbfMean) {
  sim::Rng rng(12345);
  const sim::SimTime mtbf = sim::SimTime::seconds(100.0);
  constexpr int kSamples = 20000;
  double sum = 0;
  int belowMtbf = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double t = scr::FailureInjector::sampleFailureTime(rng, mtbf).toSeconds();
    ASSERT_GT(t, 0.0);
    sum += t;
    if (t < mtbf.toSeconds()) ++belowMtbf;
  }
  // Mean of Exp(1/mtbf) is the MTBF; sd/sqrt(N) ~ 0.7% here, so 3% is a
  // comfortable deterministic bound for this fixed seed.
  EXPECT_NEAR(sum / kSamples, mtbf.toSeconds(), 0.03 * mtbf.toSeconds());
  // P(T < mtbf) = 1 - 1/e ~ 0.632 for an exponential.
  EXPECT_NEAR(belowMtbf / double(kSamples), 1.0 - 1.0 / std::exp(1.0), 0.02);
}

// ---- Supervisor ------------------------------------------------------------

// A 2-rank, 20 ms job on a 3-node Cluster whose first two attempts each lose
// a node 10 ms in: attempt 2 runs on the spare, then too few nodes are left.
// With repairs the supervisor stalls until a node returns and completes;
// without, it gives up.
TEST(Supervisor, RelaunchesThenWaitsForARepairOrGivesUp) {
  for (const sim::SimTime repair :
       {sim::SimTime::ms(50), sim::SimTime::zero()}) {
    const bool repaired = repair > sim::SimTime::zero();
    SCOPED_TRACE(repaired ? "with repairs" : "without repairs");
    ScrStack s(hw::MachineConfig::deepEr(3, 2));
    scr::FailureInjector inj(s.w.rt, s.local, &s.w.rm, repair);
    bool finished = false;
    s.w.registry.add("app", [&](Env& env) {
      env.ctx().delay(sim::SimTime::ms(20));
      if (env.rank() == 0) finished = true;
    });
    const auto failSoon = [&](const pmpi::Job& job) {
      inj.scheduleNodeFailure(job.id, s.w.engine.now() + sim::SimTime::ms(10),
                              s.w.rt.proc(job.procIdx[0]).nodeId);
    };
    {
      scr::Supervisor sup(s.w, {"app", 2, 5, sim::SimTime::ms(1), repaired},
                          [&] { return finished; },
                          [&](const pmpi::Job& job, int attempt) {
                            if (attempt <= 2) failSoon(job);
                          });
      sup.start();
      s.w.run();
      EXPECT_EQ(finished, repaired);
      EXPECT_EQ(sup.attempts(), repaired ? 3 : 2);
      EXPECT_EQ(sup.stalls() > 0, repaired);
    }
    // The destroyed supervisor detached its hook: this drain relaunches
    // nothing (and touches no freed supervisor).
    finished = false;
    const int jobs = s.w.rt.jobCount();
    failSoon(s.w.rt.launch("app", hw::NodeKind::Cluster, 1));
    s.w.run();
    EXPECT_EQ(s.w.rt.jobCount(), jobs + 1);
  }
}

}  // namespace
