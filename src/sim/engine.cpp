#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cbsim::sim {

namespace {
// Stream salts: Rng::reseed() splitmixes its input, so xor-distinct seeds
// yield uncorrelated xoshiro states.  rng_ keeps the raw seed untouched so
// fault-free runs reproduce pre-split results bit-for-bit.
constexpr std::uint64_t kFaultStreamSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kTransportStreamSalt = 0xd1b54a32d192ed03ull;
}  // namespace

Engine::Engine() : Engine(0xcb51742a5ce1ull) {}
Engine::Engine(std::uint64_t rngSeed) : Engine(rngSeed, defaultProcessBackend()) {}
Engine::Engine(std::uint64_t rngSeed, ProcessBackend backend)
    : backend_(effectiveProcessBackend(backend)),
      rng_(rngSeed),
      faultRng_(rngSeed ^ kFaultStreamSalt),
      transportRng_(rngSeed ^ kTransportStreamSalt) {}

Engine::~Engine() { shutdownProcesses(); }

void Engine::schedule(SimTime delay, EventFn fn) {
  scheduleAt(now_ + delay, std::move(fn));
}

void Engine::pushEvent(Event ev) {
  queue_.push_back(std::move(ev));
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
}

Engine::Event Engine::popEvent() {
  std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

void Engine::scheduleAt(SimTime when, EventFn fn, bool urgent) {
  if (when < now_) throw std::logic_error("Engine::scheduleAt: time in the past");
  pushEvent(Event{when, seq_++, std::move(fn), nullptr, urgent});
}

Process& Engine::spawn(std::string name, std::function<void(Context&)> fn) {
  return spawnAfter(SimTime::zero(), std::move(name), std::move(fn));
}

Process& Engine::spawnAfter(SimTime startDelay, std::string name,
                            std::function<void(Context&)> fn) {
  auto proc = std::unique_ptr<Process>(new Process(
      *this, std::move(name), std::move(fn), nextProcId_++, backend_));
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  ref.start();
  scheduleResume(ref, now_ + startDelay);
  ref.state_ = Process::State::Runnable;
  return ref;
}

void Engine::wake(Process& p) {
  if (!p.live()) return;
  if (p.state() == Process::State::Suspended) {
    p.state_ = Process::State::Runnable;
    scheduleResume(p, now_);
  } else {
    ++p.wakeTokens_;
  }
}

void Engine::cancel(Process& p) {
  if (!p.live()) return;
  p.cancelRequested_ = true;
  if (p.state() == Process::State::Suspended) {
    p.state_ = Process::State::Runnable;
    scheduleResume(p, now_);
  }
  // Runnable/Created processes observe the flag at their next resume.
}

void Engine::scheduleResume(Process& p, SimTime when) {
  pushEvent(Event{when, seq_++, {}, &p});
}

int Engine::processRow(Process& p) {
  if (p.traceRow_ < 0 && timeline() != nullptr) {
    p.traceRow_ = tracer_->row(obs::kGroupRanks, p.name());
  }
  return p.traceRow_;
}

RunStats Engine::run() { return runImpl(std::nullopt); }
RunStats Engine::runUntil(SimTime limit) { return runImpl(limit); }

RunStats Engine::runImpl(std::optional<SimTime> limit) {
  RunStats stats;
  std::uint64_t eventsThisInstant = 0;
  while (!queue_.empty()) {
    if (limit && queue_.front().when > *limit) {
      now_ = *limit;
      break;
    }
    if (watchdogArmed_ && queue_.front().when > watchdogDeadline_) {
      fireWatchdog(stats, "simulated-time deadline " +
                              std::to_string(watchdogDeadline_.toSeconds()) +
                              "s expired");
      break;
    }
    if (queue_.front().when > now_) {
      eventsThisInstant = 0;
    } else if (watchdogArmed_ && watchdogMaxEventsPerInstant_ != 0 &&
               eventsThisInstant >= watchdogMaxEventsPerInstant_) {
      fireWatchdog(stats,
                   std::to_string(watchdogMaxEventsPerInstant_) +
                       " events executed without simulated time advancing "
                       "(zero-delay event loop)");
      stats.watchdogInstantLoop = true;
      break;
    }
    ++eventsThisInstant;
    Event ev = popEvent();
    now_ = ev.when;
    ++stats.eventsProcessed;
    if (ev.proc != nullptr) {
      Process& p = *ev.proc;
      // Stale resume for a process that was woken/cancelled/terminated by
      // an earlier event at the same timestamp.
      if (!p.live() || p.state() != Process::State::Runnable) continue;
      Process* prev = current_;
      current_ = &p;
      p.resumeFromEngine();
      current_ = prev;
      if (!p.live()) reap(p, stats);
    } else {
      ev.fn();
    }
  }
  stats.endTime = now_;
  for (const auto& p : processes_) {
    if (p->state() == Process::State::Suspended) {
      stats.blockedProcesses.push_back(p->name());
    }
  }
  if (tracer_ != nullptr) {
    tracer_->metrics().add("engine.events_processed",
                           static_cast<double>(stats.eventsProcessed));
  }
  return stats;
}

namespace {
const char* stateName(Process::State s) {
  switch (s) {
    case Process::State::Created: return "created";
    case Process::State::Runnable: return "runnable";
    case Process::State::Running: return "running";
    case Process::State::Suspended: return "suspended";
    case Process::State::Finished: return "finished";
    case Process::State::Cancelled: return "cancelled";
    case Process::State::Failed: return "failed";
  }
  return "?";
}
}  // namespace

void Engine::fireWatchdog(RunStats& stats, const std::string& why) const {
  stats.watchdogFired = true;
  std::ostringstream out;
  out << "watchdog: " << why << " at t=" << now_.toSeconds() << "s\n";
  out << "pending events: " << queue_.size() << "\n";
  // The queue is a heap; sort a copy of the ordering keys to report the
  // earliest few in execution order.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    bool urgent;
    const Process* proc;
  };
  std::vector<Key> keys;
  keys.reserve(queue_.size());
  for (const auto& ev : queue_) {
    keys.push_back(Key{ev.when, ev.seq, ev.urgent, ev.proc});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.urgent != b.urgent) return a.urgent;
    return a.seq < b.seq;
  });
  const std::size_t shown = std::min<std::size_t>(keys.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    const Key& k = keys[i];
    out << "  [" << i << "] t=" << k.when.toSeconds() << "s "
        << (k.proc != nullptr ? "resume " + k.proc->name() : std::string("callback"))
        << (k.urgent ? " (urgent)" : "") << "\n";
  }
  if (keys.size() > shown) out << "  ... " << (keys.size() - shown) << " more\n";
  std::size_t live = 0;
  for (const auto& p : processes_) {
    if (p->live()) ++live;
  }
  out << "processes: " << processes_.size() << " total, " << live << " live\n";
  for (const auto& p : processes_) {
    if (!p->live()) continue;
    out << "  " << p->name() << ": " << stateName(p->state()) << "\n";
  }
  stats.watchdogReport = out.str();
}

void Engine::reap(Process& p, RunStats& stats) {
  // Release the substrate (fiber stack back to the pool / thread joined)
  // and the user closure as soon as the process dies, not at engine
  // teardown: with hundreds of thousands of ranks over a campaign, holding
  // every dead process's stack and captures to the end is the difference
  // between O(live) and O(ever-spawned) memory.  The Process object itself
  // stays (callers hold Process* for state queries).
  p.exec_->finalize();
  p.exec_.reset();
  p.fn_ = nullptr;
  if (p.state() == Process::State::Failed) {
    const std::string msg = p.name() + ": " + p.errorMessage();
    if (!collectErrors_) {
      throw std::runtime_error("process failed: " + msg);
    }
    stats.processFailures.push_back(msg);
  }
}

std::size_t Engine::liveProcessCount() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (p->live()) ++n;
  }
  return n;
}

void Engine::shutdownProcesses() {
  for (auto& p : processes_) {
    if (p->live()) {
      p->cancelRequested_ = true;
      p->resumeFromEngine();
    }
    if (p->exec_) p->exec_->finalize();  // already reaped processes have none
  }
  processes_.clear();
}

}  // namespace cbsim::sim
