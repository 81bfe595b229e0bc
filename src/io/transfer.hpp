#pragma once

// Blocking-wait helpers shared by the io/ stack: a rank process sends data
// through the fabric (or waits for a device completion time) and suspends
// until the corresponding event fires.  Elapsed time is booked to the
// rank's I/O account.

#include <memory>

#include "extoll/fabric.hpp"
#include "pmpi/env.hpp"

namespace cbsim::io {

/// Completion latch between a rank blocked on I/O and the event callbacks
/// that finish its transfer.  It lives on the heap, co-owned by the waiter
/// and every callback: a node failure can kill the rank while the transfer
/// is still in flight, and the late callbacks must then touch neither the
/// rank's stack (reaped, and possibly recycled for another rank's fiber)
/// nor wake it.  The sim::Process object itself outlives its stack, and
/// Engine::wake is a no-op on a process that is no longer live.
class Completion {
 public:
  /// A latch for the calling rank of `env`, open until `pending` arrivals.
  explicit Completion(pmpi::Env& env, int pending = 1)
      : engine_(env.runtime().engine()),
        waiter_(env.ctx().process()),
        pending_(pending) {}
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  /// Expects one more arrival.
  void expect() { ++pending_; }
  /// Counts one arrival; the last one wakes the waiter if it is still live.
  void arrive() {
    if (--pending_ == 0) engine_.wake(waiter_);
  }
  /// Suspends the calling rank until every expected arrival is in.
  void wait(pmpi::Env& env) const {
    while (pending_ > 0) env.ctx().suspend();
  }

 private:
  sim::Engine& engine_;
  sim::Process& waiter_;
  int pending_;
};

/// Moves `bytes` from endpoint `srcEp` to `dstEp` and blocks the calling
/// rank until delivery.  Uses the fabric's reliable-connection send so a
/// fault-plan loss retries at the NIC instead of suspending the rank
/// forever; a delivery after the rank died only drops the latch.
inline void awaitTransfer(pmpi::Env& env, extoll::Fabric& fabric, int srcEp,
                          int dstEp, double bytes) {
  const double t0 = env.wtime();
  const auto done = std::make_shared<Completion>(env);
  fabric.sendReliable(srcEp, dstEp, bytes, [done] { done->arrive(); });
  done->wait(env);
  env.noteIo(env.wtime() - t0);
}

/// Blocks the calling rank until the absolute simulated time `when`
/// (no-op if it already passed), charging the I/O account.
inline void awaitUntil(pmpi::Env& env, sim::SimTime when) {
  const sim::SimTime now = env.ctx().now();
  if (when > now) env.ioDelay(when - now);
}

}  // namespace cbsim::io
