#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cbsim::sim {

namespace {
// Stream salt: Rng::reseed() splitmixes its input, so an xor-distinct seed
// yields an uncorrelated xoshiro state.  rng_ keeps the raw seed untouched so
// fault-free runs reproduce pre-split results bit-for-bit.
constexpr std::uint64_t kFaultStreamSalt = 0x9e3779b97f4a7c15ull;
}  // namespace

// ------------------------------------------------------------ EventQueue

namespace detail {

EventQueue::~EventQueue() {
  for (const Instant& in : instants_) {
    for (const Lane& lane : buckets_[in.bucket].lanes) {
      for (std::uint32_t s = lane.head; s != kNone;) {
        Body& b = slot(s).body;
        s = b.next;
        b.~Body();
      }
    }
  }
}

std::uint32_t EventQueue::allocSlot() {
  if (freeHead_ != kNone) {
    const std::uint32_t s = freeHead_;
    freeHead_ = slot(s).nextFree;
    return s;
  }
  if (used_ == chunks_.size() * kChunkSlots) {
    if (used_ > kNone - kChunkSlots) {
      throw std::length_error("Engine: more than 2^32 - 1 pending events");
    }
    chunks_.emplace_back(new Slot[kChunkSlots]);
  }
  return used_++;
}

void EventQueue::push(SimTime when, bool urgent, EventFn&& fn, Process* proc) {
  const std::uint32_t b = bucketFor(when);
  Lane& lane = buckets_[b].lanes[urgent ? 0 : 1];
  const std::uint32_t s = allocSlot();
  ::new (&body(s)) Body{std::move(fn), proc, kNone};
  if (lane.tail == kNone) {
    lane.head = s;
  } else {
    body(lane.tail).next = s;
  }
  lane.tail = s;
  ++size_;
}

SimTime EventQueue::nextWhen() {
  for (;;) {
    const Instant top = instants_.front();
    const Bucket& b = buckets_[top.bucket];
    if (b.lanes[0].head != kNone || b.lanes[1].head != kNone) return top.when;
    retireTop();
  }
}

std::uint32_t EventQueue::pop() {
  Bucket& b = buckets_[instants_.front().bucket];
  Lane& lane = b.lanes[0].head != kNone ? b.lanes[0] : b.lanes[1];
  const std::uint32_t s = lane.head;
  lane.head = body(s).next;
  if (lane.head == kNone) lane.tail = kNone;
  --size_;
  return s;
}

void EventQueue::release(std::uint32_t s) noexcept {
  Slot& raw = slot(s);
  raw.body.~Body();
  raw.nextFree = freeHead_;
  freeHead_ = s;
}

namespace {
/// Heap order of the instant min-heap.
constexpr auto kLater = [](const auto& x, const auto& y) {
  return x.when > y.when;
};
}  // namespace

std::uint32_t EventQueue::bucketFor(SimTime when) {
  // Room for one more instant at load <= 1/2, so a probe that misses ends
  // on an empty entry, which takes the new instant.
  if ((instants_.size() + 1) * 2 > index_.size()) growIndex();
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(when);
  for (; index_[i].bucket != kNone; i = (i + 1) & mask) {
    if (index_[i].when == when) return index_[i].bucket;
  }
  std::uint32_t b;
  if (!freeBuckets_.empty()) {
    b = freeBuckets_.back();
    freeBuckets_.pop_back();
  } else {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[b] = Bucket{};
  index_[i] = IndexEntry{when, b};
  instants_.push_back(Instant{when, b});
  std::push_heap(instants_.begin(), instants_.end(), kLater);
  return b;
}

void EventQueue::retireTop() {
  std::pop_heap(instants_.begin(), instants_.end(), kLater);
  const Instant done = instants_.back();
  instants_.pop_back();
  indexErase(done.when);
  freeBuckets_.push_back(done.bucket);
}

std::size_t EventQueue::home(SimTime when) const {
  // Fibonacci hashing: the top bits of the product spread nearby instants.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(when.picos()) * 0x9e3779b97f4a7c15ull) >>
      indexShift_);
}

void EventQueue::growIndex() {
  std::vector<IndexEntry> old(std::max<std::size_t>(16, index_.size() * 2));
  old.swap(index_);
  indexShift_ = 64 - std::countr_zero(index_.size());
  const std::size_t mask = index_.size() - 1;
  for (const IndexEntry& e : old) {
    if (e.bucket == kNone) continue;
    std::size_t i = home(e.when);
    while (index_[i].bucket != kNone) i = (i + 1) & mask;
    index_[i] = e;
  }
}

void EventQueue::indexErase(SimTime when) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(when);
  while (index_[hole].when != when || index_[hole].bucket == kNone) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move them in front of their home slot.
  for (std::size_t j = (hole + 1) & mask; index_[j].bucket != kNone;
       j = (j + 1) & mask) {
    const std::size_t h = home(index_[j].when);
    const bool staysPut = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (staysPut) continue;
    index_[hole] = index_[j];
    hole = j;
  }
  index_[hole].bucket = kNone;
}

std::vector<EventQueue::Pending> EventQueue::front(std::size_t n) const {
  std::vector<Instant> order = instants_;
  std::sort(order.begin(), order.end(),
            [](const Instant& x, const Instant& y) { return x.when < y.when; });
  std::vector<Pending> out;
  for (const Instant& in : order) {
    for (int l = 0; l < 2; ++l) {
      for (std::uint32_t s = buckets_[in.bucket].lanes[l].head;
           s != kNone && out.size() < n; s = slot(s).body.next) {
        out.push_back(Pending{in.when, l == 0, slot(s).body.proc});
      }
    }
  }
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------- Engine

Engine::Engine() : Engine(kDefaultSeed) {}
Engine::Engine(std::uint64_t rngSeed) : Engine(rngSeed, defaultProcessBackend()) {}
Engine::Engine(std::uint64_t rngSeed, ProcessBackend backend)
    : backend_(effectiveProcessBackend(backend)),
      rng_(rngSeed),
      faultRng_(rngSeed ^ kFaultStreamSalt) {}

Engine::~Engine() { shutdownProcesses(); }

void Engine::throwBadDelay(SimTime delay, const std::string* process) const {
  std::ostringstream msg;
  msg << "simulated time out of range: ";
  if (process != nullptr) {
    msg << "process '" << *process << "'";
  } else {
    msg << "callback";
  }
  if (delay == SimTime::max()) {
    // SimTime::seconds saturates there, so the requested delay is lost;
    // all that is known is that it does not fit.
    msg << " delay beyond the SimTime range (≥ 9.22e6 s) at t="
        << now_.toSeconds() << " s";
    throw std::out_of_range(msg.str());
  }
  msg << " delay " << delay.toSeconds() << " s at t=" << now_.toSeconds()
      << " s ";
  if (delay < SimTime::zero()) {
    msg << "is negative";
  } else {
    msg << "passes the last instant, t=" << SimTime::max().toSeconds() << " s";
  }
  throw std::out_of_range(msg.str());
}

void Engine::schedule(SimTime delay, EventFn fn) {
  queue_.push(instantAfter(delay, nullptr), false, std::move(fn), nullptr);
}

void Engine::throwPastInstant(SimTime when, const std::string& what) const {
  std::ostringstream msg;
  msg << "Engine: " << what << " at t=" << when.toSeconds()
      << " s is before now (t=" << now_.toSeconds() << " s)";
  throw std::logic_error(msg.str());
}

void Engine::scheduleAt(SimTime when, EventFn fn, bool urgent) {
  if (when < now_) [[unlikely]] throwPastInstant(when, "callback");
  queue_.push(when, urgent, std::move(fn), nullptr);
}

Process& Engine::spawn(std::string name, std::function<void(Context&)> fn) {
  return spawnAfter(SimTime::zero(), std::move(name), std::move(fn));
}

Process& Engine::spawnAfter(SimTime startDelay, std::string name,
                            std::function<void(Context&)> fn) {
  const SimTime start = instantAfter(startDelay, &name);
  auto proc = std::unique_ptr<Process>(new Process(
      *this, std::move(name), std::move(fn), nextProcId_++, backend_));
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  ref.start();
  scheduleResume(ref, start);
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
  if (when < now_) [[unlikely]] {
    throwPastInstant(when, "resume of process '" + p.name() + "'");
  }
  queue_.push(when, false, {}, &p);
}

int Engine::processRow(Process& p) {
  if (p.traceRow_ < 0 && timeline() != nullptr) {
    p.traceRow_ = tracer_->row(obs::kGroupRanks, p.name());
  }
  return p.traceRow_;
}

RunStats Engine::run() { return runImpl(std::nullopt); }
RunStats Engine::runUntil(SimTime limit) {
  if (limit < now_) [[unlikely]] throwPastInstant(limit, "runUntil limit");
  return runImpl(limit);
}

RunStats Engine::runImpl(std::optional<SimTime> limit) {
  RunStats stats;
  std::uint64_t eventsThisInstant = 0;
  while (!queue_.empty()) {
    const SimTime when = queue_.nextWhen();
    if (limit && when > *limit) {
      now_ = *limit;
      break;
    }
    if (watchdogArmed_ && when > watchdogDeadline_) {
      fireWatchdog(stats, "simulated-time deadline " +
                              std::to_string(watchdogDeadline_.toSeconds()) +
                              "s expired");
      break;
    }
    if (when > now_) {
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
    const std::uint32_t slot = queue_.pop();
    detail::EventQueue::Body& ev = queue_.body(slot);
    now_ = when;
    ++stats.eventsProcessed;
    if (ev.proc != nullptr) {
      Process& p = *ev.proc;
      queue_.release(slot);
      // Stale resume for a process that was woken/cancelled/terminated by
      // an earlier event at the same timestamp.
      if (!p.live() || p.state() != Process::State::Runnable) continue;
      Process* prev = current_;
      current_ = &p;
      p.resumeFromEngine();
      current_ = prev;
      if (!p.live()) reap(p, stats);
    } else {
      // The callback runs in place (slab chunks never move) and its slot
      // is freed however it leaves, a throw included.
      struct Release {
        detail::EventQueue& q;
        std::uint32_t slot;
        ~Release() { q.release(slot); }
      } release{queue_, slot};
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
  const std::vector<detail::EventQueue::Pending> first = queue_.front(8);
  for (std::size_t i = 0; i < first.size(); ++i) {
    const detail::EventQueue::Pending& k = first[i];
    out << "  [" << i << "] t=" << k.when.toSeconds() << "s "
        << (k.proc != nullptr ? "resume " + k.proc->name() : std::string("callback"))
        << (k.urgent ? " (urgent)" : "") << "\n";
  }
  if (queue_.size() > first.size()) {
    out << "  ... " << (queue_.size() - first.size()) << " more\n";
  }
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
