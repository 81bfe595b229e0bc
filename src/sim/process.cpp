#include "sim/process.hpp"

// Execution substrates for Process (see process.hpp for the contract).
//
// Determinism argument: everything that decides *what runs next* — the
// event queue's (time, seq) order, the Process state machine, wake-token
// accounting, cancellation flags — lives in Engine/Process and is identical
// under every backend.  A backend implements exactly one primitive: "move
// control between the engine's stack and the process's stack, exactly when
// asked".  The fiber backend does that with two swapcontext calls on the
// engine's own OS thread; the thread backend with a mutex/condvar token
// handshake (two scheduler round-trips).  Neither consults time, thread
// identity, or any other ambient state, so simulations are bit-identical
// across backends (tests/test_backend.cpp pins this).

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/engine.hpp"

// Sanitizer feature detection.  TSan cannot follow user-space context
// switches, so fiber support is compiled out and every request degrades to
// the thread backend.  ASan needs to be told about stack switches via the
// fiber annotation API so redzone poisoning follows the active stack.
#if defined(__SANITIZE_THREAD__)
#define CBSIM_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define CBSIM_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CBSIM_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define CBSIM_ASAN 1
#endif
#endif

#if defined(__linux__) && !defined(CBSIM_TSAN)
#define CBSIM_HAS_FIBERS 1
#endif

#if defined(CBSIM_HAS_FIBERS)
#include <sys/mman.h>
#include <csetjmp>
#include <ucontext.h>
#include <unistd.h>
#endif
#if defined(CBSIM_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

namespace cbsim::sim {

// ------------------------------------------------------- backend selection

const char* toString(ProcessBackend b) {
  return b == ProcessBackend::Fiber ? "fiber" : "thread";
}

ProcessBackend effectiveProcessBackend(ProcessBackend requested) {
#if defined(CBSIM_HAS_FIBERS)
  return requested;
#else
  (void)requested;
  return ProcessBackend::Thread;
#endif
}

namespace {

/// -1 = not yet initialized; otherwise a ProcessBackend value.  Atomic:
/// campaign workers construct Engines concurrently.
std::atomic<int> g_defaultBackend{-1};

ProcessBackend parseBackendEnv(const char* value) {
  const std::string v(value);
  if (v == "fiber") return ProcessBackend::Fiber;
  if (v == "thread") return ProcessBackend::Thread;
  throw std::invalid_argument(
      "CBSIM_PROCESS_BACKEND must be 'fiber' or 'thread', got '" + v + "'");
}

}  // namespace

ProcessBackend defaultProcessBackend() {
  int v = g_defaultBackend.load(std::memory_order_relaxed);
  if (v < 0) {
    ProcessBackend b = ProcessBackend::Fiber;
    if (const char* env = std::getenv("CBSIM_PROCESS_BACKEND");
        env != nullptr && *env != '\0') {
      b = parseBackendEnv(env);
    }
    b = effectiveProcessBackend(b);
    v = static_cast<int>(b);
    g_defaultBackend.store(v, std::memory_order_relaxed);
  }
  return static_cast<ProcessBackend>(v);
}

void setDefaultProcessBackend(ProcessBackend b) {
  g_defaultBackend.store(static_cast<int>(effectiveProcessBackend(b)),
                         std::memory_order_relaxed);
}

// ------------------------------------------------------------ ExecContext

namespace detail {

// ---------------------------------------------------------- stack pooling

FiberStackPool::~FiberStackPool() {
#if defined(CBSIM_HAS_FIBERS)
  // Slab chunks live inside the slab mappings; only whole mappings are
  // ever handed to munmap.
  if (stacksPerSlab_ != 0) {
    for (const Stack& s : slabs_) munmap(s.map, s.mapSize);
  } else {
    for (const Stack& s : free_) munmap(s.map, s.mapSize);
  }
#endif
}

void FiberStackPool::setStacksPerSlab(std::size_t n) {
  if (!free_.empty() || !slabs_.empty()) {
    throw std::logic_error(
        "FiberStackPool: slab mode must be chosen before any stack is "
        "acquired");
  }
  stacksPerSlab_ = n;
}

FiberStackPool::Stack FiberStackPool::acquire(std::size_t mapSize) {
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].mapSize != mapSize) continue;
    const Stack s = free_[i];
    free_[i] = free_.back();
    free_.pop_back();
    ++reuses_;
    return s;
  }
  if (stacksPerSlab_ != 0) return carve(mapSize);
  return Stack{};
}

FiberStackPool::Stack FiberStackPool::carve(std::size_t mapSize) {
#if defined(CBSIM_HAS_FIBERS)
  if (slabs_.empty() || slabCarved_ == stacksPerSlab_ ||
      slabSlotSize_ != mapSize) {
    const std::size_t total = stacksPerSlab_ * mapSize;
    void* base = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                      -1, 0);
    if (base == MAP_FAILED) {
      throw std::runtime_error("sim: fiber stack slab mmap failed");
    }
    // Guard the slab's low edge so the very first stack still faults on
    // overflow; interior chunk boundaries stay unprotected (that is the
    // whole point — protecting them would split the slab back into two
    // VMAs per stack).
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    if (mprotect(base, page, PROT_NONE) != 0) {
      munmap(base, total);
      throw std::runtime_error("sim: fiber stack slab mprotect failed");
    }
    slabs_.push_back(Stack{base, total});
    slabCarved_ = 0;
    slabSlotSize_ = mapSize;
  }
  Stack s{static_cast<char*>(slabs_.back().map) + slabCarved_ * mapSize,
          mapSize};
  ++slabCarved_;
  return s;
#else
  (void)mapSize;
  return Stack{};
#endif
}

void FiberStackPool::release(Stack s) {
#if defined(CBSIM_HAS_FIBERS)
  if (s.map == nullptr) return;
  if (stacksPerSlab_ == 0 && free_.size() >= kMaxPooled) {
    munmap(s.map, s.mapSize);
    return;
  }
  // Drop the resident pages but keep the mapping (guard page included):
  // a pooled stack holds address space, not memory.  Reuse re-faults
  // zero pages lazily, exactly like a fresh mapping.  Slab chunks skip
  // the kMaxPooled cap: they cannot be unmapped individually, and their
  // count is already bounded by the high-water live-fiber count.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  madvise(static_cast<char*>(s.map) + page, s.mapSize - page, MADV_DONTNEED);
  free_.push_back(s);
#else
  (void)s;
#endif
}

std::size_t FiberStackPool::pooledAddressBytes() const {
  std::size_t total = 0;
  for (const Stack& s : free_) total += s.mapSize;
  return total;
}

void ExecContext::runProcessBody(Process& p) { p.runBody(); }
bool ExecContext::cancelRequested(const Process& p) {
  return p.cancelRequested_;
}
void ExecContext::markCancelledBeforeStart(Process& p) {
  p.state_ = Process::State::Cancelled;
}

namespace {

// ---------------------------------------------------------- thread backend
//
// One OS thread per process; exactly one of {engine driver, process thread}
// holds a token at any instant.  Every resume/yield is two condvar signals
// and two scheduler wakeups.

class ThreadExec final : public ExecContext {
 public:
  explicit ThreadExec(Process& proc) : proc_(proc) {
    thread_ = std::thread([this] { threadMain(); });
  }

  ~ThreadExec() override {
    // The engine finalizes on reap/shutdown; this is a last line of defence
    // so a stray Process never std::terminates the program.
    if (thread_.joinable()) thread_.join();
  }

  void switchToProcess() override {
    std::unique_lock lock(mtx_);
    runToken_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return controlToken_; });
    controlToken_ = false;
  }

  void switchToEngine() override {
    std::unique_lock lock(mtx_);
    controlToken_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return runToken_; });
    runToken_ = false;
  }

  void finalize() override {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void threadMain() {
    {
      std::unique_lock lock(mtx_);
      cv_.wait(lock, [this] { return runToken_; });
      runToken_ = false;
    }
    runProcessBody(proc_);
    // Final return of control to the engine.
    std::unique_lock lock(mtx_);
    controlToken_ = true;
    cv_.notify_all();
  }

  Process& proc_;
  std::mutex mtx_;
  std::condition_variable cv_;
  bool runToken_ = false;      // engine -> process
  bool controlToken_ = false;  // process -> engine
  std::thread thread_;
};

// ----------------------------------------------------------- fiber backend
//
// Stackful fibers.  The stack is mmap'd lazily at first resume (a process
// cancelled before it ever ran costs nothing) with a PROT_NONE guard page
// below it, so an overflow faults instead of corrupting a neighbouring
// fiber.  All switches happen on the engine's own OS thread.
//
// ucontext is used only to bootstrap a fiber onto its fresh stack: glibc's
// swapcontext performs a sigprocmask system call on every switch, which
// would dominate the switch cost.  Once the fiber has parked at its first
// sigsetjmp, every steady-state transfer is a sigsetjmp(buf, 0) /
// siglongjmp pair, which stays entirely in user space.

#if defined(CBSIM_HAS_FIBERS)

std::size_t fiberStackBytes() {
  // Re-read per start: tests shrink stacks for mass-spawn scenarios.
  if (const char* env = std::getenv("CBSIM_FIBER_STACK_KB");
      env != nullptr && *env != '\0') {
    const long kb = std::strtol(env, nullptr, 10);
    if (kb >= 16) return static_cast<std::size_t>(kb) * 1024;
  }
  return 256 * 1024;
}

class FiberExec final : public ExecContext {
 public:
  FiberExec(Process& proc, FiberStackPool& pool, std::size_t stackBytesHint)
      : proc_(proc), pool_(pool), stackBytesHint_(stackBytesHint) {}

  ~FiberExec() override {
    finalize();  // normally already ran via Engine::reap/shutdown
  }

  void switchToProcess() override {
    if (done_) return;
    if (!started_) {
      if (cancelRequested(proc_)) {
        markCancelledBeforeStart(proc_);
        done_ = true;
        return;
      }
      startFiber();  // parks the fiber at its first sigsetjmp
    }
    if (sigsetjmp(engineJmp_, 0) == 0) {
#if defined(CBSIM_ASAN)
      __sanitizer_start_switch_fiber(&engineFakeStack_, stackLo_, stackBytes_);
#endif
      siglongjmp(fiberJmp_, 1);
    }
#if defined(CBSIM_ASAN)
    __sanitizer_finish_switch_fiber(engineFakeStack_, nullptr, nullptr);
#endif
  }

  void switchToEngine() override {
    if (sigsetjmp(fiberJmp_, 0) == 0) {
#if defined(CBSIM_ASAN)
      __sanitizer_start_switch_fiber(&fiberFakeStack_, engineStackLo_,
                                     engineStackBytes_);
#endif
      siglongjmp(engineJmp_, 1);
    }
#if defined(CBSIM_ASAN)
    __sanitizer_finish_switch_fiber(fiberFakeStack_, &engineStackLo_,
                                    &engineStackBytes_);
#endif
  }

  void finalize() override {
    // Called once the process terminated: its stack can never be resumed,
    // so the mapping goes back to the engine's pool for the next spawn.
    if (map_ != nullptr) {
      pool_.release(FiberStackPool::Stack{map_, mapSize_});
      map_ = nullptr;
    }
  }

 private:
  static void trampoline(unsigned hi, unsigned lo) {
    const std::uint64_t bits =
        (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
    reinterpret_cast<FiberExec*>(static_cast<std::uintptr_t>(bits))
        ->fiberMain();
  }

  [[noreturn]] void fiberMain() {
#if defined(CBSIM_ASAN)
    // First entry: learn the engine-side stack we came from.
    __sanitizer_finish_switch_fiber(nullptr, &engineStackLo_,
                                    &engineStackBytes_);
#endif
    // Park: bootstrap is complete; jump straight back into startFiber.
    // (The swapcontext save made there is abandoned, never resumed.)
    if (sigsetjmp(fiberJmp_, 0) == 0) {
#if defined(CBSIM_ASAN)
      __sanitizer_start_switch_fiber(&fiberFakeStack_, engineStackLo_,
                                     engineStackBytes_);
#endif
      siglongjmp(engineJmp_, 1);
    }
#if defined(CBSIM_ASAN)
    __sanitizer_finish_switch_fiber(fiberFakeStack_, &engineStackLo_,
                                    &engineStackBytes_);
#endif
    runProcessBody(proc_);
    done_ = true;
#if defined(CBSIM_ASAN)
    // nullptr save slot: this fiber will never be resumed again.
    __sanitizer_start_switch_fiber(nullptr, engineStackLo_, engineStackBytes_);
#endif
    siglongjmp(engineJmp_, 1);  // a finished fiber is never resumed
  }

  void startFiber() {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    std::size_t stackBytes =
        stackBytesHint_ != 0 ? std::max<std::size_t>(stackBytesHint_, 16 * 1024)
                             : fiberStackBytes();
    stackBytes = (stackBytes + page - 1) / page * page;
    mapSize_ = stackBytes + page;  // + low guard page
    const FiberStackPool::Stack pooled = pool_.acquire(mapSize_);
    if (pooled.map != nullptr) {
      // Recycled mapping: guard page and stack protections are still in
      // place from its first life; contents were dropped on release.
      map_ = pooled.map;
    } else {
      void* base = mmap(nullptr, mapSize_, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                        -1, 0);
      if (base == MAP_FAILED) {
        throw std::runtime_error("sim: fiber stack mmap failed for process '" +
                                 processName() + "'");
      }
      map_ = base;
      if (mprotect(static_cast<char*>(base) + page, stackBytes,
                   PROT_READ | PROT_WRITE) != 0) {
        munmap(map_, mapSize_);
        map_ = nullptr;
        throw std::runtime_error("sim: fiber stack mprotect failed");
      }
    }
    char* lo = static_cast<char*>(map_) + page;
    stackLo_ = lo;
    stackBytes_ = stackBytes;

    ucontext_t boot{};
    ucontext_t abandoned{};
    getcontext(&boot);
    boot.uc_stack.ss_sp = lo;
    boot.uc_stack.ss_size = stackBytes;
    boot.uc_link = nullptr;
    const std::uint64_t bits = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&boot, reinterpret_cast<void (*)()>(&FiberExec::trampoline),
                2, static_cast<unsigned>(bits >> 32),
                static_cast<unsigned>(bits & 0xffffffffu));
    started_ = true;
    // Enter the fiber once; it parks at its first sigsetjmp and jumps back
    // here through engineJmp_ (`abandoned` is never resumed).
    if (sigsetjmp(engineJmp_, 0) == 0) {
#if defined(CBSIM_ASAN)
      __sanitizer_start_switch_fiber(&engineFakeStack_, stackLo_, stackBytes_);
#endif
      swapcontext(&abandoned, &boot);
    }
#if defined(CBSIM_ASAN)
    __sanitizer_finish_switch_fiber(engineFakeStack_, nullptr, nullptr);
#endif
  }

  [[nodiscard]] const std::string& processName() const { return proc_.name(); }

  Process& proc_;
  FiberStackPool& pool_;
  std::size_t stackBytesHint_;  ///< 0 = environment default
  sigjmp_buf engineJmp_{};  ///< resume point on the engine stack
  sigjmp_buf fiberJmp_{};   ///< resume point on the fiber stack
  void* map_ = nullptr;        ///< mmap base (guard page + stack)
  std::size_t mapSize_ = 0;
  void* stackLo_ = nullptr;    ///< usable stack, lowest address
  std::size_t stackBytes_ = 0;
  bool started_ = false;
  bool done_ = false;
#if defined(CBSIM_ASAN)
  void* engineFakeStack_ = nullptr;
  void* fiberFakeStack_ = nullptr;
  const void* engineStackLo_ = nullptr;
  std::size_t engineStackBytes_ = 0;
#endif
};

#endif  // CBSIM_HAS_FIBERS

}  // namespace

std::unique_ptr<ExecContext> makeExecContext(ProcessBackend backend,
                                             Process& proc,
                                             FiberStackPool& stackPool,
                                             std::size_t stackBytes) {
#if defined(CBSIM_HAS_FIBERS)
  if (backend == ProcessBackend::Fiber) {
    return std::make_unique<FiberExec>(proc, stackPool, stackBytes);
  }
#else
  (void)backend;
#endif
  (void)stackPool;
  (void)stackBytes;
  return std::make_unique<ThreadExec>(proc);
}

}  // namespace detail

// ---------------------------------------------------------------- Process

Process::Process(Engine& engine, std::string name,
                 std::function<void(Context&)> fn, std::uint64_t id,
                 ProcessBackend backend)
    : engine_(engine),
      name_(std::move(name)),
      fn_(std::move(fn)),
      id_(id),
      backend_(effectiveProcessBackend(backend)) {}

Process::~Process() {
  if (exec_) exec_->finalize();
}

void Process::start() {
  exec_ = detail::makeExecContext(backend_, *this, engine_.stackPool_,
                                  engine_.fiberStackBytes_);
}

void Process::yieldToEngine() {
  exec_->switchToEngine();
  if (cancelRequested_) throw ProcessCancelled{};
}

void Process::runBody() {
  if (cancelRequested_) {
    state_ = State::Cancelled;
    return;
  }
  state_ = State::Running;
  try {
    Context ctx(engine_, *this);
    fn_(ctx);
    state_ = State::Finished;
  } catch (const ProcessCancelled&) {
    state_ = State::Cancelled;
  } catch (const std::exception& e) {
    state_ = State::Failed;
    errorMsg_ = e.what();
  } catch (...) {
    state_ = State::Failed;
    errorMsg_ = "unknown exception";
  }
}

// ---------------------------------------------------------------- Context

SimTime Context::now() const { return engine_.now(); }
const std::string& Context::name() const { return proc_.name(); }

void Context::delay(SimTime d, const char* label) {
  const SimTime until = engine_.now() + d;
  if (engine_.timeline() != nullptr) [[unlikely]] traceDelay(label, until);
  engine_.scheduleResume(proc_, until);
  proc_.state_ = Process::State::Runnable;
  proc_.yieldToEngine();
}

void Context::traceDelay(const char* label, SimTime until) {
  // The delay interval is this process's active simulated time (compute,
  // I/O service, protocol overhead) — the span that makes up its timeline.
  engine_.timeline()->span(obs::kGroupRanks, engine_.processRow(proc_), label,
                           "sim", engine_.now(), until);
}

void Context::suspend() {
  if (proc_.wakeTokens_ > 0) {
    --proc_.wakeTokens_;
    return;
  }
  proc_.state_ = Process::State::Suspended;
  proc_.yieldToEngine();
}

}  // namespace cbsim::sim
