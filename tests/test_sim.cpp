// Unit tests for the discrete-event engine: time arithmetic, PRNG,
// event ordering (against a reference queue), process lifecycle, wake
// semantics, deadlock detection, cancellation, simulated-time range
// checks and the fiber stack pool.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace {

using namespace cbsim::sim;
using namespace cbsim::sim::literals;

// ----------------------------------------------------------------- SimTime

TEST(SimTime, UnitFactoriesAgree) {
  EXPECT_EQ(SimTime::ns(1).picos(), 1'000);
  EXPECT_EQ(SimTime::us(1).picos(), 1'000'000);
  EXPECT_EQ(SimTime::ms(1).picos(), 1'000'000'000);
  EXPECT_EQ(SimTime::sec(1).picos(), 1'000'000'000'000);
  EXPECT_EQ(1_us, SimTime::ns(1000));
}

TEST(SimTime, Arithmetic) {
  const SimTime t = 3_us + 500_ns;
  EXPECT_EQ(t.picos(), 3'500'000);
  EXPECT_EQ((t - 500_ns), 3_us);
  EXPECT_EQ((2 * t).picos(), 7'000'000);
  EXPECT_EQ(t / 1_ns, 3500);
  EXPECT_LT(3_us, t);
}

TEST(SimTime, FloatingPointConversions) {
  EXPECT_DOUBLE_EQ((1500_ns).toMicros(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2.5).toSeconds(), 2.5);
  EXPECT_EQ(SimTime::micros(1.8).picos(), 1'800'000);
  EXPECT_EQ(SimTime::seconds(1e300), SimTime::max());
}

// NaN has no integer picosecond count: converting it used to be undefined
// behaviour (a float-to-integer cast of NaN); now it fails by name.
TEST(SimTime, NaNSecondsFailByName) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)SimTime::seconds(nan);
    ADD_FAILURE() << "SimTime::seconds(NaN) must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SimTime::seconds"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)SimTime::micros(nan), std::invalid_argument);
  EXPECT_EQ(SimTime::seconds(-1e300).picos(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(SimTime, HumanReadableString) {
  EXPECT_EQ((1800_ns).str(), "1.80us");
  EXPECT_EQ((250_ps).str(), "250ps");
  EXPECT_EQ(SimTime::seconds(1.5).str(), "1.500s");
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(3);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

// ------------------------------------------------------------------ Engine

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(3_us, [&] { order.push_back(3); });
  e.schedule(1_us, [&] { order.push_back(1); });
  e.schedule(2_us, [&] { order.push_back(2); });
  const RunStats st = e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(st.eventsProcessed, 3u);
  EXPECT_EQ(st.endTime, 3_us);
}

TEST(Engine, TiesResolveInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(1_us, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, UrgentEventBeatsSameTimeEventsRegardlessOfInsertionOrder) {
  Engine e;
  std::vector<std::string> order;
  // Non-urgent events inserted first; the urgent one still runs first at
  // the shared timestamp.  This is the fault-injection tie-break: a node
  // death at t must win against a message delivery at t.
  e.scheduleAt(1_us, [&] { order.push_back("delivery-a"); });
  e.scheduleAt(1_us, [&] { order.push_back("delivery-b"); });
  e.scheduleAt(1_us, [&] { order.push_back("failure"); }, /*urgent=*/true);
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"failure", "delivery-a",
                                             "delivery-b"}));
}

TEST(Engine, UrgentTiesStillResolveInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.scheduleAt(1_us, [&] { order.push_back(10); }, /*urgent=*/true);
  e.scheduleAt(1_us, [&] { order.push_back(11); }, /*urgent=*/true);
  e.scheduleAt(1_us, [&] { order.push_back(99); });
  e.scheduleAt(1_us, [&] { order.push_back(12); }, /*urgent=*/true);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 99}));
}

TEST(Engine, UrgencyDoesNotCrossTimestamps) {
  Engine e;
  std::vector<int> order;
  e.scheduleAt(1_us, [&] { order.push_back(1); });
  e.scheduleAt(2_us, [&] { order.push_back(2); }, /*urgent=*/true);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // time outranks urgency
}

TEST(Engine, NestedSchedulingAdvancesClock) {
  Engine e;
  SimTime seen = SimTime::zero();
  e.schedule(1_us, [&] {
    e.schedule(2_us, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 3_us);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule(1_us, [&] {
    EXPECT_THROW(e.scheduleAt(SimTime::zero(), [] {}), std::logic_error);
  });
  e.run();
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine e;
  int ran = 0;
  e.schedule(1_us, [&] { ++ran; });
  e.schedule(10_us, [&] { ++ran; });
  RunStats st = e.runUntil(5_us);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(st.endTime, 5_us);
  st = e.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(st.endTime, 10_us);
}

// A limit before now() must not move the clock backwards: events scheduled
// afterwards would be timed before events that already ran.
TEST(Engine, RunUntilRejectsALimitBeforeNow) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule(10_us, [&] { fired.push_back(e.now()); });
  (void)e.runUntil(5_us);
  ASSERT_EQ(e.now(), 5_us);
  try {
    (void)e.runUntil(2_us);
    ADD_FAILURE() << "runUntil(2 us) at t=5 us must throw";
  } catch (const std::logic_error& ex) {
    EXPECT_EQ(std::string(ex.what()),
              "Engine: runUntil limit at t=2e-06 s is before now (t=5e-06 s)");
  }
  EXPECT_EQ(e.now(), 5_us);
  e.schedule(1_us, [&] { fired.push_back(e.now()); });
  (void)e.runUntil(5_us);  // a limit equal to now() is fine
  (void)e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{6_us, 10_us}));
}

// Simulated time is a signed 64-bit picosecond count (SimTime::max() is
// about 9.22e6 s).  A delay that would pass it, or a negative one, fails
// by name instead of wrapping the clock.
TEST(Engine, SimulatedTimeOutOfRangeFailsByName) {
  Engine e;
  e.setCollectProcessErrors(true);
  e.spawn("sleeper", [](Context& ctx) {
    ctx.delay(SimTime::sec(5'000'000));
    ctx.delay(SimTime::sec(5'000'000));
  });
  const RunStats st = e.run();
  ASSERT_EQ(st.processFailures.size(), 1u);
  EXPECT_EQ(st.processFailures[0],
            "sleeper: simulated time out of range: process 'sleeper' delay "
            "5e+06 s at t=5e+06 s passes the last instant, t=9.22337e+06 s");
  EXPECT_EQ(st.endTime, SimTime::sec(5'000'000));

  const auto outOfRange = [](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::out_of_range& ex) {
      return std::string(ex.what());
    }
    return std::string("no std::out_of_range");
  };
  // SimTime::seconds saturates at max(), so a delay of max() is reported as
  // beyond the range, not as a value the caller may never have asked for.
  EXPECT_EQ(outOfRange([&] { e.schedule(SimTime::max(), [] {}); }),
            "simulated time out of range: callback delay beyond the SimTime "
            "range (≥ 9.22e6 s) at t=5e+06 s");
  EXPECT_EQ(outOfRange([&] { e.schedule(SimTime::max() - 1_ps, [] {}); }),
            "simulated time out of range: callback delay 9.22337e+06 s at "
            "t=5e+06 s passes the last instant, t=9.22337e+06 s");
  EXPECT_EQ(outOfRange([&] { e.schedule(SimTime::ps(-1), [] {}); }),
            "simulated time out of range: callback delay -1e-12 s at "
            "t=5e+06 s is negative");
  EXPECT_EQ(outOfRange([&] {
              (void)e.spawnAfter(SimTime::ps(-1), "late", [](Context&) {});
            }),
            "simulated time out of range: process 'late' delay -1e-12 s at "
            "t=5e+06 s is negative");
  EXPECT_EQ(e.spawnedProcessCount(), 1u);  // the rejected spawn made nothing
  // The last instant itself is reachable.
  bool ran = false;
  e.schedule(SimTime::max() - e.now(), [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), SimTime::max());
}

TEST(Engine, ProcessDelayAdvancesTime) {
  Engine e;
  std::vector<double> stamps;
  e.spawn("p", [&](Context& ctx) {
    stamps.push_back(ctx.now().toMicros());
    ctx.delay(5_us);
    stamps.push_back(ctx.now().toMicros());
    ctx.delay(5_us);
    stamps.push_back(ctx.now().toMicros());
  });
  e.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.0);
  EXPECT_DOUBLE_EQ(stamps[1], 5.0);
  EXPECT_DOUBLE_EQ(stamps[2], 10.0);
}

TEST(Engine, ProcessesInterleaveDeterministically) {
  Engine e;
  std::string trace;
  e.spawn("a", [&](Context& ctx) {
    trace += 'a';
    ctx.delay(2_us);
    trace += 'A';
  });
  e.spawn("b", [&](Context& ctx) {
    trace += 'b';
    ctx.delay(1_us);
    trace += 'B';
  });
  e.run();
  EXPECT_EQ(trace, "abBA");
}

TEST(Engine, SuspendWakeRoundtrip) {
  Engine e;
  bool flag = false;
  Process* waiter = nullptr;
  waiter = &e.spawn("waiter", [&](Context& ctx) {
    while (!flag) ctx.suspend();
    EXPECT_EQ(ctx.now(), 7_us);
  });
  e.schedule(7_us, [&] {
    flag = true;
    e.wake(*waiter);
  });
  const RunStats st = e.run();
  EXPECT_FALSE(st.deadlocked());
}

TEST(Engine, WakeBeforeSuspendIsNotLost) {
  Engine e;
  Process* p = nullptr;
  p = &e.spawn("p", [&](Context& ctx) {
    ctx.delay(2_us);   // wake arrives at 1us while we are runnable
    ctx.suspend();     // must consume the banked token, not block
    EXPECT_EQ(ctx.now(), 2_us);
  });
  e.schedule(1_us, [&] { e.wake(*p); });
  const RunStats st = e.run();
  EXPECT_FALSE(st.deadlocked());
}

TEST(Engine, DeadlockIsReported) {
  Engine e;
  e.spawn("stuck", [&](Context& ctx) { ctx.suspend(); });
  const RunStats st = e.run();
  ASSERT_TRUE(st.deadlocked());
  EXPECT_EQ(st.blockedProcesses.at(0), "stuck");
}

TEST(Engine, WatchdogDeadlineStopsARunawayRun) {
  // A process that churns forever: only the watchdog can end this run,
  // and the report must name the culprit and its pending resume.
  Engine e;
  e.spawn("churner", [&](Context& ctx) {
    for (;;) ctx.delay(1_us);
  });
  e.setWatchdog(10_us);
  const RunStats st = e.run();
  EXPECT_TRUE(st.watchdogFired);
  EXPECT_FALSE(st.watchdogInstantLoop);
  EXPECT_LE(st.endTime, 10_us);
  EXPECT_NE(st.watchdogReport.find("deadline"), std::string::npos);
  EXPECT_NE(st.watchdogReport.find("churner"), std::string::npos);
}

TEST(Engine, WatchdogCatchesZeroDelayEventLoop) {
  // Same-instant self-rescheduling never advances time, so a deadline
  // alone can never fire; the per-instant event cap is what catches it.
  Engine e;
  std::function<void()> loop = [&] { e.schedule(SimTime::zero(), loop); };
  e.schedule(1_us, loop);
  e.setWatchdog(10_us, /*maxEventsPerInstant=*/100);
  const RunStats st = e.run();
  EXPECT_TRUE(st.watchdogFired);
  EXPECT_TRUE(st.watchdogInstantLoop);
  EXPECT_EQ(st.endTime, 1_us);
  EXPECT_NE(st.watchdogReport.find("zero-delay"), std::string::npos);
}

TEST(Engine, WatchdogStaysArmedAcrossRunsUntilCleared) {
  Engine e;
  e.setWatchdog(5_us);
  e.schedule(1_us, [] {});
  EXPECT_FALSE(e.run().watchdogFired);  // finished before the deadline
  e.schedule(9_us, [] {});
  EXPECT_TRUE(e.run().watchdogFired);  // still armed
  e.clearWatchdog();
  e.schedule(20_us, [] {});
  // Drains the event the watchdog abandoned plus the new one.
  const RunStats st = e.run();
  EXPECT_FALSE(st.watchdogFired);
}

TEST(Engine, WatchdogReportListsTheFirstEventsInRunOrder) {
  // Urgent before regular within an instant, FIFO within each, instants in
  // order; cbsim mc prints this text inside its no-progress violations.
  Engine e;
  e.spawnAfter(2_us, "sleeper", [](Context&) {});
  e.scheduleAt(3_us, [] {});
  e.scheduleAt(2_us, [] {});
  e.scheduleAt(2_us, [] {}, /*urgent=*/true);
  e.scheduleAt(1_us, [] {});
  e.scheduleAt(3_us, [] {}, /*urgent=*/true);
  e.scheduleAt(1_us, [] {}, /*urgent=*/true);
  e.scheduleAt(2_us, [] {});
  e.scheduleAt(4_us, [] {});
  e.scheduleAt(5_us, [] {}, /*urgent=*/true);
  e.setWatchdog(500_ns);
  const RunStats st = e.run();
  EXPECT_TRUE(st.watchdogFired);
  EXPECT_EQ(st.watchdogReport,
            "watchdog: simulated-time deadline 0.000000s expired at t=0s\n"
            "pending events: 10\n"
            "  [0] t=1e-06s callback (urgent)\n"
            "  [1] t=1e-06s callback\n"
            "  [2] t=2e-06s callback (urgent)\n"
            "  [3] t=2e-06s resume sleeper\n"
            "  [4] t=2e-06s callback\n"
            "  [5] t=2e-06s callback\n"
            "  [6] t=3e-06s callback (urgent)\n"
            "  [7] t=3e-06s callback\n"
            "  ... 2 more\n"
            "processes: 1 total, 1 live\n"
            "  sleeper: runnable\n");
}

// The order the engine promises, kept independently: every push is
// mirrored here keyed by (instant, urgent first, insertion number), and
// each event that runs must be the smallest key still pending.
class ReferenceQueue {
 public:
  std::uint64_t add(SimTime when, bool urgent) {
    pending_.emplace(when.picos(), !urgent, inserted_);
    return inserted_++;
  }
  void ran(std::uint64_t id) {
    ASSERT_FALSE(pending_.empty()) << "event " << id << " was never pushed";
    expected_.push_back(std::get<2>(*pending_.begin()));
    pending_.erase(pending_.begin());
    actual_.push_back(id);
  }
  [[nodiscard]] std::uint64_t inserted() const { return inserted_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] const std::vector<std::uint64_t>& expected() const {
    return expected_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& actual() const {
    return actual_;
  }

 private:
  std::set<std::tuple<std::int64_t, bool, std::uint64_t>> pending_;
  std::uint64_t inserted_ = 0;
  std::vector<std::uint64_t> expected_;
  std::vector<std::uint64_t> actual_;
};

// A seeded mix of a few thousand schedule / scheduleAt(urgent) calls,
// zero-delay and same-instant urgent pushes from inside callbacks, and
// process delay / wake / cancel runs in exactly the reference order.
TEST(Engine, RandomCallsRunInReferenceOrder) {
  constexpr std::uint64_t kBudget = 4000;  // pushes
  constexpr int kProcs = 8;
  ReferenceQueue ref;
  Rng rng(20261018);
  const std::array<SimTime, 5> delays{SimTime::zero(), 1_ns, 2_ns, 3_ns, 7_ns};
  const auto delay = [&] { return delays[rng.below(delays.size())]; };
  std::vector<Process*> procs(kProcs, nullptr);
  std::vector<std::uint64_t> resumeId(kProcs, 0);
  bool recording = true;
  std::function<void(std::uint64_t)> callback;
  Engine e;  // declared last: its processes die before the state above

  const auto push = [&](SimTime when, bool urgent) {
    const std::uint64_t id = ref.add(when, urgent);
    e.scheduleAt(when, [&callback, id] { callback(id); }, urgent);
  };
  // Resumes a suspended process (the engine queues its resume now).
  const auto poke = [&](int i, bool cancel) {
    Process* p = procs[static_cast<std::size_t>(i)];
    if (p->state() != Process::State::Suspended) return;
    resumeId[static_cast<std::size_t>(i)] = ref.add(e.now(), false);
    if (cancel) {
      e.cancel(*p);
    } else {
      e.wake(*p);
    }
  };
  callback = [&](std::uint64_t id) {
    ref.ran(id);
    const std::uint64_t actions = 1 + rng.below(3);
    for (std::uint64_t a = 0; a < actions && ref.inserted() < kBudget; ++a) {
      switch (rng.below(6)) {
        case 0: {
          const SimTime d = delay();
          const std::uint64_t next = ref.add(e.now() + d, false);
          e.schedule(d, [&callback, next] { callback(next); });
          break;
        }
        case 1: push(e.now() + delay(), rng.below(2) == 0); break;
        case 2: push(e.now(), false); break;
        case 3: push(e.now(), true); break;
        case 4: poke(static_cast<int>(rng.below(kProcs)), false); break;
        default:
          poke(static_cast<int>(rng.below(kProcs)), rng.below(4) == 0);
      }
    }
  };
  for (int i = 0; i < kProcs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    resumeId[k] = ref.add(SimTime::zero(), false);
    procs[k] = &e.spawn("p" + std::to_string(i), [&, k](Context& ctx) {
      try {
        ref.ran(resumeId[k]);
        while (ref.inserted() < kBudget) {
          if (rng.below(3) == 0) {
            ctx.suspend();  // poke() recorded the resume
          } else {
            const SimTime d = delay();
            resumeId[k] = ref.add(ctx.now() + d, false);
            ctx.delay(d);
          }
          ref.ran(resumeId[k]);
          if (rng.below(2) == 0) push(ctx.now() + delay(), rng.below(2) == 0);
        }
      } catch (const ProcessCancelled&) {
        if (recording) ref.ran(resumeId[k]);
        throw;
      }
    });
  }
  for (int i = 0; i < 16; ++i) push(SimTime::ns(rng.below(4)), rng.below(2) == 0);
  e.run();
  recording = false;
  EXPECT_GE(ref.inserted(), kBudget);
  EXPECT_EQ(ref.pending(), 0u);
  EXPECT_EQ(ref.actual(), ref.expected());
}

// A callback that throws out of run() takes only itself with it: the
// events behind it run on the next call, and every capture is destroyed
// (the thrown one, the run ones and those still pending when the engine
// dies), inline and boxed alike.
TEST(Engine, ThrowingCallbackLeavesTheRestRunnable) {
  auto token = std::make_shared<int>(0);
  std::vector<int> order;
  {
    Engine e;
    e.schedule(1_us, [&] { order.push_back(1); });
    e.schedule(2_us, [&order, token] {
      order.push_back(2);
      throw std::runtime_error("boom");
    });
    e.scheduleAt(2_us, [&order, token] { order.push_back(3); });
    const std::array<char, 128> pad{};  // too big for the inline buffer
    e.schedule(3_us, [&order, token, pad] { order.push_back(4 + pad[0]); });
    e.schedule(4_us, [token] {});
    EXPECT_EQ(token.use_count(), 5);
    EXPECT_THROW(e.run(), std::runtime_error);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(e.now(), 2_us);
    EXPECT_EQ(token.use_count(), 4);
    const RunStats st = e.runUntil(3_us);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(st.eventsProcessed, 2u);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, ProcessFailureThrowsByDefault) {
  Engine e;
  e.spawn("bad", [&](Context&) { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, ProcessFailureCollectedWhenRequested) {
  Engine e;
  e.setCollectProcessErrors(true);
  e.spawn("bad", [&](Context&) { throw std::runtime_error("boom"); });
  const RunStats st = e.run();
  ASSERT_EQ(st.processFailures.size(), 1u);
  EXPECT_NE(st.processFailures[0].find("boom"), std::string::npos);
}

TEST(Engine, CancelTerminatesSuspendedProcess) {
  Engine e;
  bool reachedEnd = false;
  Process& p = e.spawn("victim", [&](Context& ctx) {
    ctx.suspend();
    reachedEnd = true;
  });
  e.schedule(1_us, [&] { e.cancel(p); });
  const RunStats st = e.run();
  EXPECT_FALSE(reachedEnd);
  EXPECT_FALSE(st.deadlocked());
  EXPECT_EQ(p.state(), Process::State::Cancelled);
}

TEST(Engine, SpawnFromInsideProcess) {
  Engine e;
  std::vector<std::string> log;
  e.spawn("parent", [&](Context& ctx) {
    log.push_back("parent@" + ctx.now().str());
    ctx.engine().spawn("child", [&](Context& c2) {
      log.push_back("child@" + c2.now().str());
    });
    ctx.delay(1_us);
    log.push_back("parent-done");
  });
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1], "child@0ps");
}

TEST(Engine, ManyProcessesAllComplete) {
  Engine e;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    e.spawn("p" + std::to_string(i), [&, i](Context& ctx) {
      ctx.delay(SimTime::ns(i));
      ++done;
    });
  }
  const RunStats st = e.run();
  EXPECT_EQ(done, 100);
  EXPECT_FALSE(st.deadlocked());
  EXPECT_EQ(e.liveProcessCount(), 0u);
}

TEST(Engine, FiberStacksAreRecycledAcrossProcessLifetimes) {
  if (effectiveProcessBackend(ProcessBackend::Fiber) !=
      ProcessBackend::Fiber) {
    GTEST_SKIP() << "fiber backend unavailable on this build";
  }
  Engine e(1, ProcessBackend::Fiber);
  e.setFiberStackBytes(64 * 1024);
  // Sequential waves: each wave's fibers die before the next spawns, so
  // later waves must run on recycled mappings instead of fresh mmaps.
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 8; ++i) {
      e.spawn("w" + std::to_string(i), [](Context& ctx) { ctx.delay(1_us); });
    }
    e.run();
  }
  EXPECT_GE(e.stackPool().reuseCount(), 24u);  // 3 recycled waves of 8
  EXPECT_GT(e.stackPool().pooledCount(), 0u);
  EXPECT_EQ(e.liveProcessCount(), 0u);
}

// ----------------------------------------------------------- FiberStackPool

using cbsim::sim::detail::FiberStackPool;

bool fibersAvailable() {
  return effectiveProcessBackend(ProcessBackend::Fiber) ==
         ProcessBackend::Fiber;
}

std::size_t pageBytes() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// A 16 KiB stack plus its guard page.
std::size_t smallStackMap() { return 16 * 1024 + pageBytes(); }

/// Writes one byte at `p`; death tests aim it at guard pages (the child
/// that dies leaves no core file behind).
void poke(void* p) {
  const rlimit noCore{0, 0};
  setrlimit(RLIMIT_CORE, &noCore);
  *static_cast<volatile char*>(p) = 1;
}

/// Whether the page at `p` is mapped at all (mincore fails with ENOMEM on
/// an unmapped range).
bool mapped(void* p) {
  unsigned char resident = 0;
  return mincore(p, pageBytes(), &resident) == 0;
}

TEST(FiberStackPoolDeathTest, StacksUpToTheCapKeepTheirGuardPage) {
  if (!fibersAvailable()) GTEST_SKIP() << "fiber backend unavailable";
  // Engines use kGuardedStacks, so every world of up to 16,384 fibers (all
  // tests, halo-16k, the 16k scale gate) has a guard page under each stack.
  static_assert(FiberStackPool::kGuardedStacks >= 16384);
  FiberStackPool pool(3);
  std::vector<FiberStackPool::Stack> stacks;
  for (int i = 0; i < 3; ++i) {
    stacks.push_back(pool.acquire(smallStackMap(), "g" + std::to_string(i)));
  }
  EXPECT_EQ(pool.guardedCount(), 3u);
  EXPECT_EQ(pool.slabCount(), 0u);
  for (const FiberStackPool::Stack& s : stacks) {
    char* lo = static_cast<char*>(s.map);
    lo[pageBytes()] = 1;  // the stack itself is writable...
    lo[s.mapSize - 1] = 1;
    EXPECT_DEATH(poke(s.map), "");  // ...its guard page is not
  }
}

TEST(FiberStackPoolDeathTest, StacksPastTheCapComeFromOneSlab) {
  if (!fibersAvailable()) GTEST_SKIP() << "fiber backend unavailable";
  FiberStackPool pool(2);
  const std::size_t map = smallStackMap();
  (void)pool.acquire(map, "g0");
  (void)pool.acquire(map, "g1");
  std::vector<FiberStackPool::Stack> chunks;
  for (int i = 0; i < 5; ++i) chunks.push_back(pool.acquire(map, "s"));
  EXPECT_EQ(pool.guardedCount(), 2u);
  EXPECT_EQ(pool.slabCount(), 1u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].map, static_cast<char*>(chunks[i - 1].map) + map);
  }
  // Only the slab's low edge is guarded: an interior chunk's first page is
  // writable, so its overflow runs on into the lower neighbour's stack.
  EXPECT_DEATH(poke(chunks[0].map), "");
  *static_cast<volatile char*>(chunks[1].map) = 1;
}

TEST(FiberStackPool, ReleasedStacksOfBothKindsAreReusedFirst) {
  if (!fibersAvailable()) GTEST_SKIP() << "fiber backend unavailable";
  FiberStackPool pool(1);
  const std::size_t map = smallStackMap();
  const FiberStackPool::Stack guarded = pool.acquire(map, "g");
  const FiberStackPool::Stack chunk = pool.acquire(map, "s");
  static_cast<char*>(guarded.map)[pageBytes()] = 7;
  static_cast<char*>(chunk.map)[pageBytes()] = 7;
  pool.release(guarded);
  pool.release(chunk);
  EXPECT_EQ(pool.pooledCount(), 2u);
  EXPECT_EQ(pool.pooledAddressBytes(), 2 * map);

  const FiberStackPool::Stack a = pool.acquire(map, "a");
  const FiberStackPool::Stack b = pool.acquire(map, "b");
  EXPECT_EQ(pool.reuseCount(), 2u);
  EXPECT_EQ(pool.pooledCount(), 0u);
  EXPECT_EQ(pool.guardedCount(), 1u);
  EXPECT_EQ(pool.slabCount(), 1u);
  EXPECT_TRUE((a.map == guarded.map && b.map == chunk.map) ||
              (a.map == chunk.map && b.map == guarded.map));
  // Released pages were dropped: a reused stack reads as fresh zeroes.
  EXPECT_EQ(static_cast<char*>(guarded.map)[pageBytes()], 0);
  EXPECT_EQ(static_cast<char*>(chunk.map)[pageBytes()], 0);
}

TEST(FiberStackPool, DestructionUnmapsEverything) {
  if (!fibersAvailable()) GTEST_SKIP() << "fiber backend unavailable";
  std::vector<void*> pages;
  pages.reserve(8);
  {
    FiberStackPool pool(2);
    std::vector<FiberStackPool::Stack> stacks;
    for (int i = 0; i < 4; ++i) {
      stacks.push_back(pool.acquire(smallStackMap(), "p"));
    }
    pool.release(stacks[0]);  // a pooled guarded stack
    pool.release(stacks[2]);  // a pooled slab chunk; 1 and 3 stay live
    for (const FiberStackPool::Stack& s : stacks) {
      pages.push_back(s.map);
      pages.push_back(static_cast<char*>(s.map) + pageBytes());
    }
    for (void* p : pages) EXPECT_TRUE(mapped(p));
  }
  for (void* p : pages) EXPECT_FALSE(mapped(p));
}

TEST(FiberStackPool, CarvesManyStacksFromFewMappings) {
  if (!fibersAvailable()) GTEST_SKIP() << "fiber backend unavailable";
  // 200 stacks past a cap of 8 are 8 guarded mappings plus one slab, not
  // 200 mappings: the VMA economy that lets a 131k-rank world fit under
  // vm.max_map_count.
  FiberStackPool pool(8);
  const std::size_t map = 32 * 1024 + pageBytes();
  std::vector<FiberStackPool::Stack> stacks;
  for (int i = 0; i < 200; ++i) {
    stacks.push_back(pool.acquire(map, "s" + std::to_string(i)));
  }
  EXPECT_EQ(pool.guardedCount(), 8u);
  EXPECT_EQ(pool.slabCount(), 1u);
  // Dead fibers' chunks are pooled, not lost.
  for (const FiberStackPool::Stack& s : stacks) pool.release(s);
  EXPECT_EQ(pool.pooledCount(), 200u);
  EXPECT_EQ(pool.pooledAddressBytes(), 200 * map);
}

TEST(Engine, FibersPastTheGuardedCapRunOnSlabChunks) {
  if (!fibersAvailable()) GTEST_SKIP() << "fiber backend unavailable";
  // All fibers are alive at once: the first kGuardedStacks get guarded
  // mappings, the rest run on chunks of one slab.
  const std::size_t n = FiberStackPool::kGuardedStacks + 100;
  Engine e(1, ProcessBackend::Fiber);
  e.setFiberStackBytes(16 * 1024);
  std::size_t done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    e.spawn("f" + std::to_string(i), [&](Context& ctx) {
      ctx.delay(1_us);
      ++done;
    });
  }
  const RunStats st = e.run();
  EXPECT_FALSE(st.deadlocked());
  EXPECT_EQ(done, n);
  EXPECT_EQ(e.stackPool().guardedCount(), FiberStackPool::kGuardedStacks);
  EXPECT_EQ(e.stackPool().slabCount(), 1u);
  EXPECT_EQ(e.stackPool().pooledCount(), n);
}

TEST(FiberStackPool, MappingFailuresNameTheirCause) {
  if (!fibersAvailable()) GTEST_SKIP() << "fiber backend unavailable";
  // 1 PiB exceeds any user address space: both kinds fail in mmap.
  const std::size_t huge = std::size_t{1} << 50;
  FiberStackPool guardedPool(2);
  (void)guardedPool.acquire(smallStackMap(), "r0");
  FiberStackPool slabPool(0);
  const std::pair<FiberStackPool*, const char*> cases[] = {
      {&guardedPool, "(guarded stacks mapped: 1)"},
      {&slabPool, "(guarded stacks mapped: 0)"}};
  for (const auto& [pool, count] : cases) {
    try {
      (void)pool->acquire(huge, "rank-7");
      ADD_FAILURE() << "a 1 PiB stack was mapped";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("fiber stack mmap failed"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'rank-7'"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::strerror(ENOMEM)), std::string::npos) << msg;
      EXPECT_NE(msg.find(count), std::string::npos) << msg;
    }
  }
  // A slab of stacks this large would overflow its byte count.
  EXPECT_THROW((void)slabPool.acquire(SIZE_MAX / 2, "rank-8"),
               std::length_error);
}

TEST(Engine, DestructionCancelsLiveProcesses) {
  bool sawCancel = false;
  {
    Engine e;
    e.spawn("held", [&](Context& ctx) {
      struct Sentinel {
        bool* flag;
        ~Sentinel() { *flag = true; }  // unwinding proves cancellation ran
      } s{&sawCancel};
      ctx.suspend();
    });
    e.run();
  }
  EXPECT_TRUE(sawCancel);
}

}  // namespace
