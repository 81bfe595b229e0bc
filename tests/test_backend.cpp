// Process-backend equivalence, stress and stack-size tests.
//
// The fiber and thread backends must be observationally identical: all
// scheduling is decided by the Engine's event queue and the Process state
// machine, a backend only transfers control (process.hpp).  These tests
// assert that claim on a direct engine workload, on a full campaign report
// (byte-for-byte), and under a mass cancel/wake stress load.  They also
// pin how an engine sizes its fiber stacks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cbsim;
using sim::Context;
using sim::Engine;
using sim::Process;
using sim::ProcessBackend;
using sim::RunStats;
using sim::SimTime;

/// Restores the process-wide default backend on scope exit.
struct BackendGuard {
  ProcessBackend saved = sim::defaultProcessBackend();
  ~BackendGuard() { sim::setDefaultProcessBackend(saved); }
};

TEST(BackendEngine, FiberStackSizeIsPerEngine) {
  if (sim::effectiveProcessBackend(ProcessBackend::Fiber) !=
      ProcessBackend::Fiber) {
    GTEST_SKIP() << "fiber backend unavailable on this build";
  }
  // Address space of the one stack a single-fiber engine pools after its
  // run: the stack size the engine was set to, plus the guard page.
  const auto pooledStackBytes = [](std::size_t bytes) {
    Engine e(1, ProcessBackend::Fiber);
    e.setFiberStackBytes(bytes);
    e.spawn("p", [](Context& ctx) { ctx.delay(SimTime::us(1)); });
    e.run();
    return e.stackPool().pooledAddressBytes();
  };
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_EQ(pooledStackBytes(64 * 1024), 64 * 1024 + page);
  EXPECT_EQ(pooledStackBytes(8 * 1024), 16 * 1024 + page);  // clamped
  EXPECT_EQ(pooledStackBytes(0), 256 * 1024 + page);        // the default
  // What the engine reports is what its fibers get.
  Engine e;
  EXPECT_EQ(e.fiberStackBytes(), 256u * 1024);
  e.setFiberStackBytes(8 * 1024);
  EXPECT_EQ(e.fiberStackBytes(), 16u * 1024);
}

/// A workload exercising every control-transfer path: delays, plain events,
/// suspend/wake, cancellation before and after first run, and RNG use.
/// Returns a full interleaving trace plus the RunStats digest.
std::string runMixedWorkload(ProcessBackend backend) {
  Engine e(1234, backend);
  std::string log;
  auto mark = [&](const std::string& what, SimTime at) {
    log += what + "@" + std::to_string(at.picos()) + ";";
  };

  Process* sleeper = nullptr;
  sleeper = &e.spawn("sleeper", [&](Context& ctx) {
    mark("sleeper-start", ctx.now());
    ctx.suspend();
    mark("sleeper-woken", ctx.now());
    ctx.suspend();
    mark("sleeper-woken2", ctx.now());
  });

  for (int p = 0; p < 4; ++p) {
    e.spawn("worker" + std::to_string(p), [&, p](Context& ctx) {
      for (int i = 0; i < 3; ++i) {
        ctx.delay(SimTime::us(1 + (p * 3 + i) % 5));
        mark("w" + std::to_string(p) + "." + std::to_string(i), ctx.now());
      }
      if (p == 2) {
        e.wake(*sleeper);
        mark("wake1", ctx.now());
      }
    });
  }

  Process& doomedEarly = e.spawn("doomed-early", [&](Context& ctx) {
    mark("doomed-early-ran", ctx.now());  // must never appear
  });
  e.cancel(doomedEarly);  // cancelled before its first run

  Process& doomedMid = e.spawnAfter(SimTime::us(2), "doomed-mid",
                                    [&](Context& ctx) {
                                      mark("doomed-mid-start", ctx.now());
                                      ctx.delay(SimTime::us(50));
                                      mark("doomed-mid-done", ctx.now());
                                    });
  e.schedule(SimTime::us(4), [&e, &doomedMid] { e.cancel(doomedMid); });

  e.schedule(SimTime::us(9), [&] {
    e.wake(*sleeper);
    log += "wake2;";
  });
  e.schedule(SimTime::us(3),
             [&] { log += "rng=" + std::to_string(e.rng().below(1 << 20)) + ";"; });

  const RunStats st = e.run();
  log += "events=" + std::to_string(st.eventsProcessed) + ";";
  log += "end=" + std::to_string(st.endTime.picos()) + ";";
  log += "blocked=" + std::to_string(st.blockedProcesses.size()) + ";";
  return log;
}

TEST(BackendEquivalence, MixedWorkloadTraceIsBitIdentical) {
  const std::string fiber = runMixedWorkload(ProcessBackend::Fiber);
  const std::string thread = runMixedWorkload(ProcessBackend::Thread);
  EXPECT_EQ(fiber, thread);
  EXPECT_NE(fiber.find("sleeper-woken2"), std::string::npos);
  EXPECT_EQ(fiber.find("doomed-early-ran"), std::string::npos);
  EXPECT_EQ(fiber.find("doomed-mid-done"), std::string::npos);
}

TEST(BackendEquivalence, EngineReportsEffectiveBackend) {
  Engine ef(1, ProcessBackend::Fiber);
  Engine et(1, ProcessBackend::Thread);
  EXPECT_EQ(ef.processBackend(),
            sim::effectiveProcessBackend(ProcessBackend::Fiber));
  EXPECT_EQ(et.processBackend(), ProcessBackend::Thread);
}

TEST(BackendEquivalence, CampaignReportByteIdentical) {
  // The golden-figure pipeline rests on this: a scenario's report must not
  // depend on which substrate ran its processes.
  BackendGuard guard;
  for (const char* name : {"fig8-tiny", "fig3"}) {
    const campaign::Campaign c = campaign::builtinCampaign(name);
    sim::setDefaultProcessBackend(ProcessBackend::Fiber);
    const std::string fiber =
        campaign::toJson(campaign::runCampaign(c, campaign::withJobs(2)));
    sim::setDefaultProcessBackend(ProcessBackend::Thread);
    const std::string thread =
        campaign::toJson(campaign::runCampaign(c, campaign::withJobs(2)));
    EXPECT_EQ(fiber, thread) << name;
  }
}

TEST(BackendEquivalence, FaultyCampaignReportByteIdentical) {
  // Fault injection (drops, retransmits, node kills, relaunches) draws on
  // the engine RNG and reshapes the event schedule heavily; the recovery
  // report must still be independent of process substrate and worker
  // count.
  BackendGuard guard;
  const campaign::Campaign c = campaign::builtinCampaign("resilience-tiny");

  sim::setDefaultProcessBackend(ProcessBackend::Fiber);
  const std::string fiber1 =
      campaign::toJson(campaign::runCampaign(c, campaign::withJobs(1)));
  const std::string fiber4 =
      campaign::toJson(campaign::runCampaign(c, campaign::withJobs(4)));
  sim::setDefaultProcessBackend(ProcessBackend::Thread);
  const std::string thread =
      campaign::toJson(campaign::runCampaign(c, campaign::withJobs(2)));
  EXPECT_EQ(fiber1, fiber4);
  EXPECT_EQ(fiber1, thread);
  // The report must show actual fault traffic, or this test proves nothing.
  EXPECT_NE(fiber1.find("fabric_retransmits"), std::string::npos);
}

TEST(BackendStress, MassCancelWakeIsDeterministic) {
  // 10k processes on 64 KiB fiber stacks: a third run to completion, a
  // third are woken from suspension, a third are cancelled while parked.
  // The run must terminate, leave nobody blocked, and produce the same
  // event count every time.  (Under the thread backend this would mean 10k
  // OS threads, so the count is scaled down there.)
  const bool fibers = sim::effectiveProcessBackend(ProcessBackend::Fiber) ==
                      ProcessBackend::Fiber;
  const int n = fibers ? 10000 : 500;

  auto runOnce = [&]() -> std::uint64_t {
    Engine e(99, fibers ? ProcessBackend::Fiber : ProcessBackend::Thread);
    e.setFiberStackBytes(64 * 1024);
    std::vector<Process*> procs;
    procs.reserve(static_cast<std::size_t>(n));
    int completed = 0;
    for (int i = 0; i < n; ++i) {
      procs.push_back(&e.spawn("p" + std::to_string(i), [&, i](Context& ctx) {
        ctx.delay(SimTime::us(1 + i % 7));
        if (i % 3 == 1) ctx.suspend();  // woken (or cancelled) later
        ++completed;
      }));
    }
    e.schedule(SimTime::us(10), [&] {
      for (int i = 0; i < n; ++i) {
        if (i % 3 == 1) {
          if (i % 2 == 1) {
            e.wake(*procs[static_cast<std::size_t>(i)]);
          } else {
            e.cancel(*procs[static_cast<std::size_t>(i)]);
          }
        }
      }
    });
    const RunStats st = e.run();
    EXPECT_FALSE(st.deadlocked());
    EXPECT_EQ(e.liveProcessCount(), 0u);
    // Everyone except the cancelled third finished their body.
    int expectCancelled = 0;
    for (int i = 0; i < n; ++i) {
      if (i % 3 == 1 && i % 2 == 0) ++expectCancelled;
    }
    EXPECT_EQ(completed, n - expectCancelled);
    return st.eventsProcessed;
  };

  const std::uint64_t first = runOnce();
  EXPECT_EQ(runOnce(), first);
}

}  // namespace
