#include "mc/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hw/machine.hpp"
#include "io/beegfs.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "pmpi/world.hpp"
#include "scr/failure.hpp"
#include "scr/supervisor.hpp"
#include "sim/engine.hpp"

namespace cbsim::mc {

namespace {

using sim::SimTime;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Post-run drain/deadlock invariant shared by both families.  The run
/// executes under the engine watchdog (deadline = drainSec plus a
/// same-instant cap), so both "still churning at the deadline" and a
/// zero-delay event loop surface here with the watchdog's queue/process
/// dump attached.
std::string drainViolation(sim::Engine& engine, const sim::RunStats& st,
                           double drainSec) {
  if (st.watchdogFired) {
    if (st.watchdogInstantLoop) {
      return "no-progress violation: " + st.watchdogReport;
    }
    if (engine.liveProcessCount() > 0) {
      return "drain-bound violation: " +
             std::to_string(engine.liveProcessCount()) +
             " process(es) still live at t=" + num(drainSec) + "s\n" +
             st.watchdogReport;
    }
    // Deadline passed with no live process: only passive timers (node
    // repairs and the like) remained — the app itself drained cleanly.
    return "";
  }
  if (engine.liveProcessCount() > 0 &&
      engine.now() >= SimTime::seconds(drainSec)) {
    return "drain-bound violation: " +
           std::to_string(engine.liveProcessCount()) +
           " process(es) still live at t=" + num(drainSec) + "s";
  }
  if (st.deadlocked()) {
    return "recovery hang: deadlocked, first blocked process " +
           st.blockedProcesses.front();
  }
  return "";
}

/// Same-instant event cap for the watchdog: generous enough for any legal
/// burst in these tiny worlds, small enough to stop a livelock quickly.
constexpr std::uint64_t kMaxEventsPerInstant = 1'000'000;

/// scenarioWorld(), resolved once for every schedule a run function
/// explores and checked against the fault plan: bad target references are
/// description errors that `--validate` must catch, not violations.
hw::MachineConfig checkedWorld(const McScenario& s) {
  hw::MachineConfig config = scenarioWorld(s);
  if (s.fault) {
    if (std::string err = s.fault->validateFor(config); !err.empty()) {
      throw std::invalid_argument("mc: fault plan: " + err);
    }
  }
  return config;
}

pmpi::ProtocolParams effectiveProtocol(const McScenario& s) {
  pmpi::ProtocolParams p = s.protocol;
  // The invariants under test are the reliable transport's promises;
  // the fire-and-forget path has nothing to explore.
  p.reliable = true;
  p.brokenDedupForTest = s.breakDedup;
  return p;
}

RunFn makeMessageRaceRun(const McScenario& s) {
  if (s.senders < 1 || s.messages < 1) {
    throw std::invalid_argument("mc: message-race needs senders/messages >= 1");
  }
  if (s.senders + 1 > 8) {
    throw std::invalid_argument("mc: exploration worlds are capped at 8 ranks");
  }
  return [s, config = checkedWorld(s)](Chooser& chooser) -> std::string {
    pmpi::World w(config, effectiveProtocol(s), s.seed);
    if (s.fault) w.setFaultPlan(*s.fault);
    w.rt.setChooser(&chooser);
    // Node crashes in the plan need an injector (and a store to drop);
    // a killed job ends the trial cleanly — the invariants are conditional
    // on delivery, not on the job surviving the crash.
    io::LocalStore local(w.machine, w.fabric);
    scr::FailureInjector injector(w.rt, local, &w.rm);
    injector.setChooser(&chooser, SimTime::seconds(s.faultQuantumSec));
    injector.applyPlan(w.faultPlan());

    std::string violation;
    const auto fail = [&](std::string msg) {
      if (violation.empty()) violation = std::move(msg);
    };

    const int total = s.senders * s.messages;
    w.registry.add("race", [&](pmpi::Env& env) {
      if (env.rank() == 0) {
        // Wildcard fan-in.  Payloads carry (sender rank, per-sender index)
        // so delivery defects are directly attributable: a repeated index
        // is a duplicate, a skipped one is a loss or overtake.
        std::vector<int> next(static_cast<std::size_t>(s.senders) + 1, 0);
        if (s.recvWarmupUs > 0) {
          env.ctx().delay(SimTime::ps(std::llround(s.recvWarmupUs * 1e6)));
        }
        for (int k = 0; k < total; ++k) {
          std::uint64_t v = ~std::uint64_t{0};
          const pmpi::Status st = env.recv(env.world(), pmpi::AnySource,
                                           pmpi::AnyTag,
                                           std::span<std::uint64_t>(&v, 1));
          const int src = static_cast<int>(v / 1000);
          const int idx = static_cast<int>(v % 1000);
          if (src < 1 || src > s.senders || src != st.source) {
            fail("corrupt delivery: payload claims sender " +
                 std::to_string(src) + ", status says " +
                 std::to_string(st.source));
            return;
          }
          const int expect = next[static_cast<std::size_t>(src)];
          if (idx != expect) {
            fail((idx < expect ? std::string("exactly-once violation: ")
                               : std::string("in-order violation: ")) +
                 "message #" + std::to_string(idx) + " from sender " +
                 std::to_string(src) + " delivered where #" +
                 std::to_string(expect) + " was due");
            return;
          }
          ++next[static_cast<std::size_t>(src)];
          if (s.recvWorkUs > 0) {
            env.ctx().delay(SimTime::ps(std::llround(s.recvWorkUs * 1e6)));
          }
        }
        for (int r = 1; r <= s.senders; ++r) {
          if (next[static_cast<std::size_t>(r)] != s.messages) {
            fail("lost messages: sender " + std::to_string(r) +
                 " delivered " +
                 std::to_string(next[static_cast<std::size_t>(r)]) + "/" +
                 std::to_string(s.messages));
            return;
          }
        }
      } else {
        // Each sender leads with a small per-rank skew so streams
        // interleave at the receiver, then fires back-to-back — same-time
        // frames on one channel are what retransmit jitter can reorder.
        env.ctx().delay(SimTime::us(env.rank()));
        for (int i = 0; i < s.messages; ++i) {
          const std::uint64_t v =
              static_cast<std::uint64_t>(env.rank()) * 1000 +
              static_cast<std::uint64_t>(i);
          env.sendValue(env.world(), 0, 7, v);
        }
      }
    });
    w.rt.launch("race", hw::NodeKind::Cluster, s.senders + 1);
    w.engine.setWatchdog(SimTime::seconds(s.drainSec), kMaxEventsPerInstant);
    const sim::RunStats st = w.engine.run();
    if (violation.empty()) violation = drainViolation(w.engine, st, s.drainSec);
    w.rt.setChooser(nullptr);
    return violation;
  };
}

RunFn makeCheckpointRestartRun(const McScenario& s) {
  if (s.ranks < 1 || s.steps < 1) {
    throw std::invalid_argument(
        "mc: checkpoint-restart needs ranks/steps >= 1");
  }
  if (s.ranks > 8) {
    throw std::invalid_argument("mc: exploration worlds are capped at 8 ranks");
  }
  // The supervisor's inputs: a bad value here is a description error, not
  // a recovery hang for the oracle to report.
  if (s.maxAttempts < 1) {
    throw std::invalid_argument(
        "mc: checkpoint-restart needs max_attempts >= 1");
  }
  if (s.spareNodes < 0) {
    throw std::invalid_argument(
        "mc: checkpoint-restart needs spare_nodes >= 0");
  }
  if (s.restartDelaySec < 0) {
    throw std::invalid_argument(
        "mc: checkpoint-restart needs restart_delay_sec >= 0");
  }
  hw::MachineConfig config = checkedWorld(s);
  const int clusters = config.countOf(hw::NodeKind::Cluster);
  if (s.ranks > clusters) {
    throw std::invalid_argument(
        "mc: checkpoint-restart: " + std::to_string(s.ranks) +
        " ranks need as many Cluster nodes, the machine has " +
        std::to_string(clusters));
  }
  return [s, config = std::move(config)](Chooser& chooser) -> std::string {
    pmpi::World w(config, effectiveProtocol(s), s.seed);
    if (s.fault) w.setFaultPlan(*s.fault);
    w.rt.setChooser(&chooser);
    io::BeeGfs fs(w.machine, w.fabric);
    io::LocalStore local(w.machine, w.fabric);
    io::NamStore nam(w.machine, w.fabric);
    scr::Scr ckpt(w.machine, fs, local, nam, s.scr);

    std::string violation;
    const auto fail = [&](std::string msg) {
      if (violation.empty()) violation = std::move(msg);
    };

    // Deterministic state evolution: the bytes at step t are a pure
    // function of (step, rank), so a restored rank's recomputed
    // checkpoints must coincide bit-for-bit with the pre-failure ones.
    const auto fillState = [&](std::vector<std::byte>& state, int step,
                               int rank) {
      for (std::size_t j = 0; j < state.size(); ++j) {
        state[j] = static_cast<std::byte>(
            (static_cast<std::size_t>(step) * 131 +
             static_cast<std::size_t>(rank) * 17 + j) & 0xff);
      }
    };
    // What each rank actually handed to SCR, keyed by (step, rank).
    std::map<std::pair<int, int>, std::vector<std::byte>> written;

    bool finished = false;
    w.registry.add("ck", [&](pmpi::Env& env) {
      std::vector<std::byte> state(s.stateBytes);
      int start = 0;
      if (const auto resumed = ckpt.restart(env, env.world(), state)) {
        const auto it = written.find({*resumed, env.rank()});
        if (it == written.end()) {
          fail("restore invariant: step " + std::to_string(*resumed) +
               " on rank " + std::to_string(env.rank()) +
               " was never checkpointed");
        } else if (it->second != state) {
          fail("restore invariant: state restored for step " +
               std::to_string(*resumed) + " on rank " +
               std::to_string(env.rank()) +
               " is not bit-equal to the checkpointed bytes");
        }
        start = *resumed + 1;
      }
      for (int step = start; step < s.steps; ++step) {
        fillState(state, step, env.rank());
        env.ctx().delay(SimTime::seconds(s.stepSec));
        if (ckpt.needCheckpoint(step)) {
          // Recorded at hand-off, not at completion: a failure can land
          // mid-collective with every rank's bytes already durable, and
          // restarting from such a set is legitimate — the invariant is
          // that whatever comes back is bit-equal to what went in.
          written[{step, env.rank()}] = state;
          ckpt.checkpoint(env, env.world(), step, pmpi::ConstBytes(state));
        }
      }
      if (env.rank() == 0) finished = true;
    });

    // One node failure on the first attempt — at an instant the chooser
    // picks — then relaunch-on-drain until the run completes.
    scr::FailureInjector chaos(w.rt, local, &w.rm,
                               SimTime::seconds(s.repairSec));
    chaos.setChooser(&chooser, SimTime::seconds(s.faultQuantumSec));
    chaos.applyPlan(w.faultPlan());
    scr::Supervisor supervisor(
        w,
        {"ck", s.ranks, s.maxAttempts, SimTime::seconds(s.restartDelaySec),
         s.repairSec > 0},
        [&] { return finished; },
        [&](const pmpi::Job& job, int attempt) {
          if (attempt != 1 || s.failAtSec <= 0) return;
          const int victimRank = s.ranks - 1;
          const int victimNode =
              w.rt.proc(job.procIdx[static_cast<std::size_t>(victimRank)])
                  .nodeId;
          chaos.scheduleNodeFailure(job.id, SimTime::seconds(s.failAtSec),
                                    victimNode);
        });
    supervisor.start();
    w.engine.setWatchdog(SimTime::seconds(s.drainSec), kMaxEventsPerInstant);
    const sim::RunStats st = w.engine.run();
    if (violation.empty()) violation = drainViolation(w.engine, st, s.drainSec);
    if (violation.empty() && !finished) {
      violation = "recovery hang: run did not complete within " +
                  num(s.drainSec) + "s (attempts=" +
                  std::to_string(supervisor.attempts()) + ")";
    }
    w.rt.setChooser(nullptr);
    return violation;
  };
}

}  // namespace

RunFn makeRun(const McScenario& s) {
  if (s.family == "message-race") return makeMessageRaceRun(s);
  if (s.family == "checkpoint-restart") return makeCheckpointRestartRun(s);
  throw std::invalid_argument("mc: unknown scenario family \"" + s.family +
                              "\"");
}

hw::MachineConfig scenarioWorld(const McScenario& s) {
  if (s.machine) return *s.machine;
  return hw::MachineConfig::deepEr(s.family == "checkpoint-restart"
                                       ? s.ranks + s.spareNodes
                                       : s.senders + 1,
                                   2);
}

ExploreResult exploreScenario(const McScenario& s) {
  ExploreOptions opt;
  opt.maxSchedules = s.budget.maxSchedules;
  opt.maxDepth = s.budget.maxDepth;
  opt.sleepSets = s.budget.sleepSets;
  return explore(makeRun(s), opt);
}

}  // namespace cbsim::mc
