#pragma once

// Deterministic discrete-event engine.
//
// Events are ordered by (time, urgency, insertion order); ties therefore
// resolve in schedule order, making every run bit-reproducible.  Urgent
// events (failure injection) run before regular events carrying the same
// timestamp regardless of insertion order — a defined semantic tie-break
// instead of an accident of queue history.  The engine is not
// thread-safe in the conventional sense: it relies on the cooperative
// process handshake (see process.hpp) guaranteeing that only one thread
// touches engine state at a time.

#include <algorithm>
#include <cstddef>
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

namespace detail {

/// The engine's pending events, keyed by simulated instant.
///
/// Event bodies (callback or process to resume) sit in a slab of
/// fixed-size chunks that never move, so an event runs in place and may
/// schedule more events meanwhile; freed slots are reused LIFO.  Every
/// pending instant owns a bucket with two FIFO lanes, urgent and regular,
/// singly linked through the bodies by 4-byte slot index.  A min-heap
/// orders the distinct instants and an open-addressed table maps an
/// instant to its bucket, so a push costs one table probe and a pop
/// touches no ordering structure until its instant drains.  A drained
/// bucket is recycled only when the next instant is looked up, so
/// zero-delay events scheduled by the last event of an instant still land
/// in it.
///
/// Pop order is (instant, urgent lane first, FIFO within a lane).  Lanes
/// are FIFO in push order, so this is the order a single queue keyed by
/// (time, urgent, insertion sequence) gives.  Nothing is allocated until
/// the first push.
class EventQueue {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kChunkSlots = 256;

 public:
  struct Body {
    EventFn fn;                  ///< empty for a process resume
    Process* proc = nullptr;     ///< process to resume
    std::uint32_t next = kNone;  ///< next slot of the same lane
  };
  /// A pending event as the watchdog report lists it.
  struct Pending {
    SimTime when;
    bool urgent = false;
    const Process* proc = nullptr;  ///< nullptr for a callback
  };

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(SimTime when, bool urgent, EventFn&& fn, Process* proc);
  /// Instant of the next event.  Pre: !empty().
  [[nodiscard]] SimTime nextWhen();
  /// Unlinks the next event and returns its slot, whose body stays valid
  /// until release().  Pre: nextWhen() was called since the last pop.
  [[nodiscard]] std::uint32_t pop();
  [[nodiscard]] Body& body(std::uint32_t s) { return slot(s).body; }
  /// Destroys the body of a popped slot and frees the slot.
  void release(std::uint32_t s) noexcept;

  /// The first `n` pending events in run order.
  [[nodiscard]] std::vector<Pending> front(std::size_t n) const;

 private:
  /// Raw storage for one body: constructed by push, destroyed by release,
  /// and the free-list link while free.
  union Slot {
    Slot() {}   // NOLINT: leaves the storage uninitialized on purpose
    ~Slot() {}  // NOLINT
    Body body;
    std::uint32_t nextFree;
  };
  struct Lane {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  struct Bucket {
    Lane lanes[2];  ///< [0] urgent, [1] regular
  };
  struct Instant {
    SimTime when;
    std::uint32_t bucket;
  };
  struct IndexEntry {
    SimTime when;
    std::uint32_t bucket = kNone;  ///< kNone: empty entry
  };

  [[nodiscard]] Slot& slot(std::uint32_t s) const {
    return chunks_[s / kChunkSlots][s % kChunkSlots];
  }
  [[nodiscard]] std::uint32_t allocSlot();
  /// The bucket of `when`, created (and its instant queued) on first use.
  [[nodiscard]] std::uint32_t bucketFor(SimTime when);
  /// Drops the drained bucket at the top of the instant heap.
  void retireTop();
  [[nodiscard]] std::size_t home(SimTime when) const;
  /// Doubles the index (16 entries at first) and rehashes it.
  void growIndex();
  void indexErase(SimTime when);

  std::vector<std::unique_ptr<Slot[]>> chunks_;  ///< never move
  std::uint32_t used_ = 0;                       ///< slots ever handed out
  std::uint32_t freeHead_ = kNone;
  std::size_t size_ = 0;  ///< pending events
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> freeBuckets_;
  std::vector<Instant> instants_;  ///< min-heap on `when`
  std::vector<IndexEntry> index_;  ///< power-of-two size, load <= 1/2
  int indexShift_ = 64;            ///< 64 - log2(index_.size())
};

}  // namespace detail

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
  /// Seed of a default-constructed engine.
  static constexpr std::uint64_t kDefaultSeed = 0xcb51742a5ce1ull;

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
  /// Backend every process spawned by this engine runs on.
  [[nodiscard]] ProcessBackend processBackend() const { return backend_; }

  /// Schedules `fn` to run `delay` after the current simulated time.
  /// Throws std::out_of_range, naming the callback, the delay and now(),
  /// when `delay` is negative or now() + delay would pass SimTime::max().
  void schedule(SimTime delay, EventFn fn);
  /// Schedules `fn` at the absolute simulated time `when` (>= now(), else
  /// std::logic_error).
  /// An urgent event runs before every non-urgent event scheduled at the
  /// same simulated time, regardless of insertion order — the tie-break
  /// used by failure injection so "fault at t" beats "delivery at t".
  void scheduleAt(SimTime when, EventFn fn, bool urgent = false);

  /// Creates a process and schedules its first run at the current time.
  Process& spawn(std::string name, std::function<void(Context&)> fn);
  /// Creates a process whose first run happens `startDelay` from now
  /// (checked like schedule()'s delay, naming the process).
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
  /// A limit before now() throws std::logic_error and leaves the clock and
  /// the queue alone.
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

  /// Fiber stack size of every process spawned without another one set.
  static constexpr std::size_t kDefaultFiberStackBytes = 256 * 1024;
  /// Smallest fiber stack the engine hands out.
  static constexpr std::size_t kMinFiberStackBytes = 16 * 1024;
  /// Fiber stack size for processes spawned after the call, in bytes: 0
  /// selects kDefaultFiberStackBytes, and smaller sizes are raised to
  /// kMinFiberStackBytes.  Scenario descriptions route their per-workload
  /// stack budget through this.  The thread backend ignores it.
  void setFiberStackBytes(std::size_t bytes) {
    fiberStackBytes_ = bytes == 0 ? kDefaultFiberStackBytes
                                  : std::max(bytes, kMinFiberStackBytes);
  }
  /// The stack size a fiber spawned now gets (before page rounding).
  [[nodiscard]] std::size_t fiberStackBytes() const { return fiberStackBytes_; }
  /// Owner of this engine's fiber stack mappings; it guards the first
  /// detail::FiberStackPool::kGuardedStacks stacks individually and carves
  /// the rest from slabs (telemetry: guardedCount / slabCount / reuseCount).
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

  /// now() + delay, or std::out_of_range naming the delayed `process`
  /// (nullptr: a callback), the delay and now() when the delay is negative
  /// or the instant would pass SimTime::max().  A delay of exactly
  /// SimTime::max() is reported as beyond the range: SimTime::seconds
  /// saturates there.
  [[nodiscard]] SimTime instantAfter(SimTime delay,
                                     const std::string* process) const {
    if (delay < SimTime::zero() || delay > SimTime::max() - now_) [[unlikely]] {
      throwBadDelay(delay, process);
    }
    return now_ + delay;
  }
  [[noreturn]] void throwBadDelay(SimTime delay,
                                  const std::string* process) const;
  /// std::logic_error: `what` ("callback", a process resume, a runUntil
  /// limit) at `when` < now().
  [[noreturn]] void throwPastInstant(SimTime when,
                                     const std::string& what) const;
  void scheduleResume(Process& p, SimTime when);
  RunStats runImpl(std::optional<SimTime> limit);
  void reap(Process& p, RunStats& stats);
  void shutdownProcesses();
  /// Fills RunStats::watchdogFired/watchdogReport with a dump of the
  /// pending event queue and every process's state.
  void fireWatchdog(RunStats& stats, const std::string& why) const;

  SimTime now_ = SimTime::zero();
  /// Declared before processes_: fibers return stacks here on finalize,
  /// so the pool must outlive every Process.
  detail::FiberStackPool stackPool_;
  std::size_t fiberStackBytes_ = kDefaultFiberStackBytes;
  detail::EventQueue queue_;
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;
  ProcessBackend backend_;
  Rng rng_;
  Rng faultRng_;
  bool collectErrors_ = false;
  bool watchdogArmed_ = false;
  SimTime watchdogDeadline_ = SimTime::zero();
  std::uint64_t watchdogMaxEventsPerInstant_ = 0;
  std::uint64_t nextProcId_ = 1;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t tracerGeneration_ = 0;
};

}  // namespace cbsim::sim
