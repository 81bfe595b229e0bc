#pragma once

// Deterministic discrete-event engine.
//
// Events are ordered by (time, urgency, insertion sequence); ties therefore
// resolve in schedule order, making every run bit-reproducible.  Urgent
// events (failure injection) run before regular events carrying the same
// timestamp regardless of insertion order — a defined semantic tie-break
// instead of an accident of queue history.  The engine is not
// thread-safe in the conventional sense: it relies on the cooperative
// process handshake (see process.hpp) guaranteeing that only one thread
// touches engine state at a time.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace cbsim::sim {

/// Event callback storage.  Captures up to the inline capacity are stored
/// in the event itself — the schedule/pop hot path never allocates for
/// them; larger captures are boxed once (see small_fn.hpp).
using EventFn = SmallFn<64>;

/// Result of an Engine::run() call.
struct RunStats {
  std::uint64_t eventsProcessed = 0;
  SimTime endTime = SimTime::zero();
  /// Names of processes still blocked when the event queue drained.
  /// Non-empty means the simulation deadlocked.
  std::vector<std::string> blockedProcesses;
  /// "name: message" for every process that terminated with an exception.
  std::vector<std::string> processFailures;
  /// Set when the progress watchdog (setWatchdog) expired: the run was
  /// abandoned, and `watchdogReport` holds a dump of the pending event
  /// queue and process states for diagnosis.
  bool watchdogFired = false;
  /// Set when the firing cause was the same-instant event cap (a
  /// zero-delay event loop) rather than the simulated-time deadline.
  /// The distinction matters to invariant harnesses: a deadline can
  /// expire with only passive timers left (benign), an instant loop is
  /// always a hang.
  bool watchdogInstantLoop = false;
  std::string watchdogReport;

  [[nodiscard]] bool deadlocked() const { return !blockedProcesses.empty(); }
};

class Engine {
 public:
  Engine();
  explicit Engine(std::uint64_t rngSeed);
  /// Selects the process execution substrate for this engine; the request
  /// is mapped through effectiveProcessBackend() (TSan forces Thread).
  Engine(std::uint64_t rngSeed, ProcessBackend backend);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  /// Application-level RNG stream (workload samplers, app models).
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Fault-decision stream (fault-plan drop/corrupt draws).  A separate
  /// stream so inserting or removing a fault draw — e.g. a chaos schedule
  /// shifting one window — cannot realign the draws any other subsystem
  /// sees, which is what keeps shrunk fault schedules replayable and the
  /// mc independence relation honest (ROADMAP item 4).
  [[nodiscard]] Rng& faultRng() { return faultRng_; }
  /// Transport-level stream (reserved for randomized transport timing;
  /// today's retransmit jitter goes through mc choice points instead).
  [[nodiscard]] Rng& transportRng() { return transportRng_; }
  /// Backend every process spawned by this engine runs on.
  [[nodiscard]] ProcessBackend processBackend() const { return backend_; }

  /// Schedules `fn` to run `delay` after the current simulated time.
  void schedule(SimTime delay, EventFn fn);
  /// Schedules `fn` at the absolute simulated time `when` (>= now()).
  /// An urgent event runs before every non-urgent event scheduled at the
  /// same simulated time, regardless of insertion order — the tie-break
  /// used by failure injection so "fault at t" beats "delivery at t".
  void scheduleAt(SimTime when, EventFn fn, bool urgent = false);

  /// Creates a process and schedules its first run at the current time.
  Process& spawn(std::string name, std::function<void(Context&)> fn);
  /// Creates a process whose first run happens `startDelay` from now.
  Process& spawnAfter(SimTime startDelay, std::string name,
                      std::function<void(Context&)> fn);

  /// Delivers a wake to `p` (see Context::suspend for semantics).
  /// Ignored if the process already terminated.
  void wake(Process& p);

  /// Requests cooperative termination of `p`: the next time it would run,
  /// ProcessCancelled is raised inside it.  Used for failure injection.
  void cancel(Process& p);

  /// Runs until the event queue is empty.  Throws std::runtime_error on the
  /// first failed process unless setCollectProcessErrors(true) was called,
  /// in which case failures are reported in RunStats::processFailures.
  RunStats run();
  /// Runs until the queue is empty or simulated time would exceed `limit`.
  RunStats runUntil(SimTime limit);

  void setCollectProcessErrors(bool collect) { collectErrors_ = collect; }

  /// Progress watchdog: when simulated time would pass `deadline`, or more
  /// than `maxEventsPerInstant` events execute without simulated time
  /// advancing (a zero-delay event loop — the hang runUntil() can never
  /// catch), the run stops with RunStats::watchdogFired set and a dump of
  /// the pending event queue and process states in watchdogReport.
  /// `maxEventsPerInstant` 0 disables the same-instant check.  The
  /// watchdog stays armed across run() calls until cleared.
  void setWatchdog(SimTime deadline, std::uint64_t maxEventsPerInstant = 0) {
    watchdogDeadline_ = deadline;
    watchdogMaxEventsPerInstant_ = maxEventsPerInstant;
    watchdogArmed_ = true;
  }
  void clearWatchdog() { watchdogArmed_ = false; }

  /// Cancels and joins every live process.  Owners of process bodies
  /// (e.g. the pmpi Runtime) call this from their destructor so no process
  /// can outlive state its closures reference.  Idempotent.
  void shutdown() { shutdownProcesses(); }

  /// Fiber stack size for processes spawned after the call, in bytes;
  /// 0 (the default) defers to $CBSIM_FIBER_STACK_KB / the 256 KiB
  /// built-in.  Scenario descriptions route their per-workload stack
  /// budget through this instead of mutating the environment.
  void setFiberStackBytes(std::size_t bytes) { fiberStackBytes_ = bytes; }
  [[nodiscard]] std::size_t fiberStackBytes() const { return fiberStackBytes_; }
  /// Carve fiber stacks from shared slab mappings of `n` stacks each
  /// instead of one fully guarded mapping per stack — required to fit
  /// >~32k concurrent fibers under the kernel's default vm.max_map_count;
  /// see detail::FiberStackPool::setStacksPerSlab for the guard-page
  /// trade-off.  Must be called before the first process spawns; 0 (the
  /// default) keeps per-stack guard pages.
  void setFiberStacksPerSlab(std::size_t n) { stackPool_.setStacksPerSlab(n); }
  /// Stack-mapping recycler shared by this engine's fibers (telemetry:
  /// pooledCount / reuseCount).
  [[nodiscard]] const detail::FiberStackPool& stackPool() const {
    return stackPool_;
  }
  /// Processes ever spawned on this engine (reaped ones included).
  [[nodiscard]] std::uint64_t spawnedProcessCount() const {
    return nextProcId_ - 1;
  }

  /// Process currently executing, or nullptr when inside a plain event
  /// callback / outside run().
  [[nodiscard]] Process* currentProcess() const { return current_; }

  /// Number of processes that have not yet terminated.
  [[nodiscard]] std::size_t liveProcessCount() const;

  /// Attaches (or detaches, with nullptr) an observability tracer.  Every
  /// layer built on the engine reaches it through tracer(); a null handle
  /// disables all instrumentation at the cost of one pointer test per site.
  void setTracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    ++tracerGeneration_;
  }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }
  /// The attached tracer when it records a timeline, nullptr when there is
  /// none or it is metrics-only.  Timeline-only instrumentation (spans,
  /// instants, counter tracks, row registration) guards on this, so a
  /// metrics-only run skips that work before building any argument.
  [[nodiscard]] obs::Tracer* timeline() const {
    return tracer_ != nullptr && !tracer_->metricsOnly() ? tracer_ : nullptr;
  }
  /// Bumped by every setTracer() call.  Layers that cache metric handles
  /// resolved against tracer()'s registry tag the cache with the generation
  /// and drop it when the generation moves on (a swapped tracer).
  [[nodiscard]] std::uint64_t tracerGeneration() const {
    return tracerGeneration_;
  }

  /// Timeline row for `p` (group obs::kGroupRanks), registered on first use
  /// under the process's name.  Returns -1 when timeline() is null.
  int processRow(Process& p);

 private:
  friend class Context;
  friend class Process;

  struct Event {
    SimTime when;
    std::uint64_t seq;
    EventFn fn;               // empty when proc != nullptr
    Process* proc = nullptr;  // process to resume
    bool urgent = false;      // runs before same-time non-urgent events
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.urgent != b.urgent) return b.urgent;
      return a.seq > b.seq;
    }
  };

  void pushEvent(Event ev);
  /// Removes and returns the earliest event (FIFO on time ties).
  Event popEvent();

  void scheduleResume(Process& p, SimTime when);
  RunStats runImpl(std::optional<SimTime> limit);
  void reap(Process& p, RunStats& stats);
  void shutdownProcesses();
  /// Fills RunStats::watchdogFired/watchdogReport with a dump of the
  /// pending event queue and every process's state.
  void fireWatchdog(RunStats& stats, const std::string& why) const;

  SimTime now_ = SimTime::zero();
  std::uint64_t seq_ = 0;
  /// Declared before processes_: fibers return stacks here on finalize,
  /// so the pool must outlive every Process.
  detail::FiberStackPool stackPool_;
  std::size_t fiberStackBytes_ = 0;  ///< 0 = environment default
  /// Binary heap ordered by EventLater (std::push_heap/std::pop_heap), the
  /// same discipline std::priority_queue uses — kept as a plain vector so
  /// the top event can be moved out without const_cast (mutating through a
  /// const reference is UB).
  std::vector<Event> queue_;
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;
  ProcessBackend backend_;
  Rng rng_;
  Rng faultRng_;
  Rng transportRng_;
  bool collectErrors_ = false;
  bool watchdogArmed_ = false;
  SimTime watchdogDeadline_ = SimTime::zero();
  std::uint64_t watchdogMaxEventsPerInstant_ = 0;
  std::uint64_t nextProcId_ = 1;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t tracerGeneration_ = 0;
};

}  // namespace cbsim::sim
