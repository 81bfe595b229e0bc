#pragma once

// Cooperative simulated processes.
//
// A Process is user code (an arbitrary callable) that runs against simulated
// time: it can delay(), suspend() until woken, and exchange control with the
// Engine's event loop.  Exactly one logical thread of control — either the
// engine's caller or one process — runs at any instant.
//
// Two interchangeable execution substrates provide the independent stack a
// process needs (see ProcessBackend):
//
//  * Fiber (default): stackful fibers on the engine's own OS thread,
//    bootstrapped with ucontext and switched with sigsetjmp/siglongjmp —
//    no scheduler involvement, no futex, no syscalls in steady state,
//    ~two orders of magnitude cheaper than the thread handshake.
//  * Thread: one OS thread per process, serialized by a strict mutex/condvar
//    token handshake.  Kept as a portability fallback and for TSan runs
//    (TSan builds force this backend; see effectiveProcessBackend).
//
// Scheduling order is decided entirely by the Engine's event queue and the
// Process state machine below; a backend only transfers control.  Both
// backends therefore produce bit-identical simulations (asserted by
// tests/test_backend.cpp).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace cbsim::sim {

class Engine;
class Process;

/// Thrown inside a process when the engine cancels it (e.g. engine
/// destruction, or failure injection).  Process code must let it propagate.
struct ProcessCancelled {};

/// Execution substrate for Process stacks.
enum class ProcessBackend {
  Fiber,   ///< stackful user-space fibers (ucontext); default on Linux
  Thread,  ///< one OS thread per process; fallback and TSan substrate
};

[[nodiscard]] const char* toString(ProcessBackend b);

/// Backend used by engines that don't request one explicitly.  Initialized
/// once from $CBSIM_PROCESS_BACKEND ("fiber" | "thread", empty = default);
/// Fiber where available, else Thread.
[[nodiscard]] ProcessBackend defaultProcessBackend();
/// Overrides the process-wide default (tests, benches, CLI --backend).
void setDefaultProcessBackend(ProcessBackend b);
/// Maps a requested backend to the one actually used: Fiber degrades to
/// Thread on TSan builds (TSan cannot follow user-space context switches)
/// and on platforms without ucontext.
[[nodiscard]] ProcessBackend effectiveProcessBackend(ProcessBackend requested);

/// Handle passed to process code; the only sanctioned way for process code
/// to interact with simulated time.
class Context {
 public:
  Context(Engine& engine, Process& proc) : engine_(engine), proc_(proc) {}

  [[nodiscard]] Engine& engine() const { return engine_; }
  [[nodiscard]] Process& process() const { return proc_; }
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] const std::string& name() const;

  /// Advances this process's simulated clock by `d`.  `label` names the
  /// resulting activity span on this process's timeline row when the
  /// attached tracer records a timeline (obs/; Engine::timeline()); it must
  /// be a string with static storage duration.
  void delay(SimTime d, const char* label = "delay");

  /// Blocks until another party calls Engine::wake() on this process.
  /// Wakes are counted: a wake delivered while the process is runnable is
  /// consumed by the next suspend() instead of being lost.  Callers should
  /// re-check their wait condition in a loop (wakes may be "spurious" when
  /// a process waits on several completion flags over its lifetime).
  void suspend();

 private:
  /// Out-of-line tracer bookkeeping; the hot path tests the timeline
  /// handle and calls this only when a timeline is recorded.
  void traceDelay(const char* label, SimTime until);

  Engine& engine_;
  Process& proc_;
};

namespace detail {

/// Recycles fiber stack mappings across process lifetimes.  mmap/munmap
/// per process is measurable at campaign scale (TLB shootdowns plus VMA
/// churn for hundreds of thousands of short-lived ranks); a finished
/// fiber's mapping goes back here instead, its pages dropped so pooled
/// stacks cost address space but no resident memory.  Stacks are matched
/// by exact mapping size (the stack size is engine-wide per scenario, so
/// the pool is effectively homogeneous); a size mismatch or a full pool
/// falls through to munmap.  Owned by the Engine; thread backend unused.
class FiberStackPool {
 public:
  struct Stack {
    void* map = nullptr;  ///< mmap base (guard page + stack)
    std::size_t mapSize = 0;
  };

  FiberStackPool() = default;
  ~FiberStackPool();
  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  /// A pooled mapping of exactly `mapSize` bytes, or {nullptr, 0}.  In
  /// slab mode never null: an empty free list carves a fresh chunk (and
  /// maps a new slab when the current one is exhausted).
  [[nodiscard]] Stack acquire(std::size_t mapSize);
  /// Returns a mapping to the pool (resident pages are released back to
  /// the kernel) or unmaps it when the pool is at capacity.  Slab chunks
  /// are always pooled — they cannot be unmapped individually.
  void release(Stack s);

  /// Slab mode: carve stacks out of shared mappings of `n` stacks each
  /// instead of one mmap per stack.  A guarded per-stack mapping costs two
  /// VMAs (PROT_NONE guard + stack), which caps concurrent fibers at about
  /// half the kernel's vm.max_map_count (default 65530) — far below a
  /// 131,072-rank world.  A slab is ONE mapping regardless of `n`, so VMA
  /// use drops to ceil(fibers / n) + 1.  The trade: only the slab's low
  /// edge keeps a guard page; an interior stack that overflows runs into
  /// its neighbour's dead zone (the chunk's unprotected first page) and
  /// then the neighbour's stack without faulting.  Opt-in for mass-scale
  /// sweeps; 0 (the default) keeps fully guarded per-stack mappings.
  /// Must be called before the first stack is acquired.
  void setStacksPerSlab(std::size_t n);
  [[nodiscard]] std::size_t stacksPerSlab() const { return stacksPerSlab_; }
  [[nodiscard]] std::size_t slabCount() const { return slabs_.size(); }

  [[nodiscard]] std::size_t pooledCount() const { return free_.size(); }
  [[nodiscard]] std::size_t pooledAddressBytes() const;
  /// Times acquire() was served from the pool (mmaps avoided).
  [[nodiscard]] std::uint64_t reuseCount() const { return reuses_; }

 private:
  [[nodiscard]] Stack carve(std::size_t mapSize);

  static constexpr std::size_t kMaxPooled = 256;
  std::vector<Stack> free_;
  std::uint64_t reuses_ = 0;
  std::size_t stacksPerSlab_ = 0;  ///< 0 = one guarded mapping per stack
  std::vector<Stack> slabs_;       ///< whole-slab mappings, for teardown
  std::size_t slabCarved_ = 0;     ///< chunks carved from slabs_.back()
  std::size_t slabSlotSize_ = 0;   ///< chunk size of the current slab
};

/// One process's execution substrate: an independent stack plus control
/// transfer in both directions.  Exactly one side is ever running.
class ExecContext {
 public:
  virtual ~ExecContext() = default;
  /// Engine side: start/resume the process, returning once it yields or
  /// terminates.  A process cancelled before its first run is marked
  /// Cancelled without ever executing user code.
  virtual void switchToProcess() = 0;
  /// Process side: give control back to the engine; returns when resumed.
  virtual void switchToEngine() = 0;
  /// Engine side, after the process terminated: release substrate
  /// resources that need the owner's thread (OS-thread join).  Idempotent.
  virtual void finalize() = 0;

 protected:
  // Subclasses drive the Process state machine through these.
  static void runProcessBody(Process& p);
  static bool cancelRequested(const Process& p);
  static void markCancelledBeforeStart(Process& p);
};

/// `stackBytes` 0 means the environment default ($CBSIM_FIBER_STACK_KB or
/// 256 KiB); nonzero values are clamped to at least 16 KiB.  Both the pool
/// and the size are ignored by the thread backend.
std::unique_ptr<ExecContext> makeExecContext(ProcessBackend backend,
                                             Process& proc,
                                             FiberStackPool& stackPool,
                                             std::size_t stackBytes);

}  // namespace detail

class Process {
 public:
  enum class State {
    Created,    ///< spawned, never scheduled yet
    Runnable,   ///< resume event in the queue
    Running,    ///< currently executing user code
    Suspended,  ///< blocked in Context::suspend() awaiting a wake
    Finished,   ///< user function returned
    Cancelled,  ///< terminated via ProcessCancelled
    Failed,     ///< user function threw
  };

  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] ProcessBackend backend() const { return backend_; }
  [[nodiscard]] bool live() const {
    return state_ != State::Finished && state_ != State::Cancelled &&
           state_ != State::Failed;
  }
  [[nodiscard]] const std::string& errorMessage() const { return errorMsg_; }

 private:
  friend class Engine;
  friend class Context;
  friend class detail::ExecContext;

  Process(Engine& engine, std::string name, std::function<void(Context&)> fn,
          std::uint64_t id, ProcessBackend backend);

  /// Creates the execution substrate (thread backend: launches the thread).
  void start();
  /// Engine side: hand control to the process and block until it yields.
  /// Pre: current thread is the engine's driver.
  void resumeFromEngine() { exec_->switchToProcess(); }
  /// Process side: hand control back to the engine and block until resumed.
  /// Throws ProcessCancelled if cancellation was requested meanwhile.
  void yieldToEngine();
  /// Runs the user function with the full state/exception protocol; called
  /// exactly once, on the process's own stack.
  void runBody();

  Engine& engine_;
  std::string name_;
  std::function<void(Context&)> fn_;
  std::uint64_t id_;
  ProcessBackend backend_;

  State state_ = State::Created;
  bool cancelRequested_ = false;
  std::uint64_t wakeTokens_ = 0;  ///< wakes delivered while not suspended
  int traceRow_ = -1;             ///< lazily registered obs/ timeline row
  std::string errorMsg_;

  std::unique_ptr<detail::ExecContext> exec_;
};

}  // namespace cbsim::sim
