#pragma once

// Relaunch-on-drain supervision (DEEP-ER's resiliency loop, arXiv
// 1904.07725): launch an app on Cluster nodes and, each time its job
// drains before the run is done, relaunch it after a restart delay onto
// whatever nodes the resource manager still has.  It all happens inside one
// engine run, so repairs, relaunches and fault plans interleave on the one
// simulated clock.  The resilience campaign and mc's checkpoint-restart
// family both supervise their runs with it.

#include <functional>
#include <string>
#include <utility>

#include "pmpi/world.hpp"

namespace cbsim::scr {

class Supervisor {
 public:
  struct Policy {
    std::string app;
    int ranks = 1;
    int maxAttempts = 1;
    sim::SimTime restartDelay;
    /// When failed nodes outnumber the spares: keep retrying until a
    /// repair returns one (true), or give up for good (false).
    bool waitForRepair = false;
  };
  /// Called right after each launch with the new job and its 1-based
  /// attempt number; callers schedule that attempt's failure here.
  using OnLaunch = std::function<void(const pmpi::Job&, int attempt)>;

  /// Attaches the relaunch hook to `world`'s runtime.  `done` tells a
  /// completed run from a drained (failed) one.
  Supervisor(pmpi::World& world, Policy policy, std::function<bool()> done,
             OnLaunch onLaunch)
      : world_(world),
        policy_(std::move(policy)),
        done_(std::move(done)),
        onLaunch_(std::move(onLaunch)) {
    world_.rt.setJobDrainHook([this](int) { queueRelaunch(); });
  }
  ~Supervisor() { world_.rt.setJobDrainHook({}); }
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Makes the first launch attempt; run the engine afterwards.
  void start() { launchAttempt(); }

  [[nodiscard]] int attempts() const { return attempts_; }
  /// Launch attempts that found too few free nodes and waited for a repair.
  [[nodiscard]] int stalls() const { return stalls_; }

 private:
  void queueRelaunch() {
    if (relaunchQueued_ || done_()) return;
    relaunchQueued_ = true;
    world_.engine.schedule(policy_.restartDelay, [this] {
      relaunchQueued_ = false;
      launchAttempt();
    });
  }

  void launchAttempt() {
    if (done_() || attempts_ >= policy_.maxAttempts) return;
    if (world_.rm.freeCount(hw::NodeKind::Cluster) < policy_.ranks) {
      // Pool short: failed nodes outnumber the spares.  Without repairs
      // the run is stuck for good, so give up instead of spinning.
      if (policy_.waitForRepair) {
        ++stalls_;
        queueRelaunch();
      }
      return;
    }
    ++attempts_;
    onLaunch_(
        world_.rt.launch(policy_.app, hw::NodeKind::Cluster, policy_.ranks),
        attempts_);
  }

  pmpi::World& world_;
  Policy policy_;
  std::function<bool()> done_;
  OnLaunch onLaunch_;
  int attempts_ = 0;
  int stalls_ = 0;
  bool relaunchQueued_ = false;
};

}  // namespace cbsim::scr
