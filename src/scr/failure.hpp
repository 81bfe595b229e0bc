#pragma once

// Failure injection (paper section III-D: SCR decides where and how often
// to checkpoint "based on a failure model of the DEEP-ER prototype").
//
// A node failure kills every rank of the affected job and destroys the
// node's NVMe contents — which is precisely the case that separates the
// checkpoint levels: local checkpoints die with the node, buddy/global/NAM
// ones survive.  When a resource manager is attached the failed node is
// also pulled from the allocatable pool (and returned after `repairAfter`,
// the MTTR), which is what forces a supervised relaunch onto a spare or
// surviving node instead of silently reusing the dead one.

#include <stdexcept>

#include "fault/plan.hpp"
#include "io/local_store.hpp"
#include "mc/choice.hpp"
#include "pmpi/runtime.hpp"
#include "rm/resource_manager.hpp"
#include "sim/rng.hpp"

namespace cbsim::scr {

class FailureInjector {
 public:
  FailureInjector(pmpi::Runtime& rt, io::LocalStore& store,
                  rm::ResourceManager* rm = nullptr,
                  sim::SimTime repairAfter = sim::SimTime::zero())
      : rt_(rt), store_(store), rm_(rm), repairAfter_(repairAfter) {}

  /// Attaches a scheduling chooser (mc/choice.hpp): each scheduled
  /// failure instant is then quantized into three slots — the requested
  /// time plus 0, 1 or 2 quanta — and the chooser picks one, letting the
  /// explorer race the fault against event boundaries.  Slot 0 keeps the
  /// requested instant, so DeterministicChooser changes nothing.
  void setChooser(mc::Chooser* chooser, sim::SimTime quantum) {
    chooser_ = chooser;
    quantum_ = quantum;
  }

  /// Schedules a node failure at absolute simulated time `at`: all ranks
  /// of `jobId` are cancelled and `dropNode`'s NVMe contents are lost.
  /// With an attached resource manager the node also leaves the pool
  /// (until repaired, when an MTTR was configured).  `at` must not lie in
  /// the past — a failure cannot rewrite history.
  ///
  /// Tie-break: the failure event is scheduled *urgent*, so when it lands
  /// exactly on another event's timestamp the fault fires first — the
  /// defined semantics ("the node was already dead when the message would
  /// have been delivered") instead of queue-insertion-order luck.
  void scheduleNodeFailure(int jobId, sim::SimTime at, int dropNode) {
    if (at < rt_.engine().now()) {
      throw std::invalid_argument(
          "scr: node-failure time lies in the simulated past");
    }
    if (chooser_ != nullptr && quantum_ > sim::SimTime::zero()) {
      static constexpr std::uint64_t kSlots[3] = {0, 1, 2};
      const int slot = chooser_->choose(
          {mc::Site::FaultInstant, static_cast<std::uint64_t>(dropNode),
           kSlots});
      at += slot * quantum_;
    }
    rt_.engine().scheduleAt(at, [this, jobId, dropNode] {
      if (rt_.jobDone(jobId)) return;  // raced with normal completion
      rt_.killJob(jobId);
      store_.dropNode(dropNode);
      if (rm_ != nullptr) {
        rm_->markFailed(dropNode);
        if (repairAfter_ > sim::SimTime::zero()) {
          rt_.engine().schedule(repairAfter_,
                                [this, dropNode] { rm_->repair(dropNode); });
        }
      }
      ++injected_;
      lastFailureAt_ = rt_.engine().now();
      if (obs::Tracer* tr = rt_.engine().tracer()) {
        tr->metrics().add("scr.failures_injected");
      }
    }, /*urgent=*/true);
  }

  /// Node-targeted crash (chaos plans name nodes, not jobs): at `at` the
  /// job holding a live rank on `node` — resolved at fire time, because a
  /// supervisor may have relaunched elsewhere by then — is killed, the
  /// node's NVMe contents are lost, and the node leaves the pool,
  /// returning `restartAfter` later (falls back to the injector-wide MTTR
  /// when zero).  An idle node still loses its NVMe and its pool slot.
  /// Urgent, same tie-break as scheduleNodeFailure.
  void scheduleNodeCrash(sim::SimTime at, int node, sim::SimTime restartAfter) {
    if (at < rt_.engine().now()) {
      throw std::invalid_argument(
          "scr: node-crash time lies in the simulated past");
    }
    if (chooser_ != nullptr && quantum_ > sim::SimTime::zero()) {
      static constexpr std::uint64_t kSlots[3] = {0, 1, 2};
      const int slot = chooser_->choose(
          {mc::Site::FaultInstant, static_cast<std::uint64_t>(node), kSlots});
      at += slot * quantum_;
    }
    rt_.engine().scheduleAt(at, [this, node, restartAfter] {
      const int jobId = rt_.jobOnNode(node);
      if (jobId >= 0 && !rt_.jobDone(jobId)) rt_.killJob(jobId);
      store_.dropNode(node);
      if (rm_ != nullptr) {
        rm_->markFailed(node);
        const sim::SimTime repair =
            restartAfter > sim::SimTime::zero() ? restartAfter : repairAfter_;
        if (repair > sim::SimTime::zero()) {
          rt_.engine().schedule(repair,
                                [this, node] { rm_->repair(node); });
        }
      }
      ++injected_;
      lastFailureAt_ = rt_.engine().now();
      if (obs::Tracer* tr = rt_.engine().tracer()) {
        tr->metrics().add("scr.failures_injected");
      }
    }, /*urgent=*/true);
  }

  /// Schedules every node crash of a fault plan.
  void applyPlan(const fault::FaultPlan& plan) {
    for (const fault::Fault& c : plan.crashes()) {
      scheduleNodeCrash(c.from, c.target, c.restartAfter);
    }
  }

  [[nodiscard]] int injected() const { return injected_; }
  /// Time of the most recent injected failure (zero until the first one).
  [[nodiscard]] sim::SimTime lastFailureAt() const { return lastFailureAt_; }

  /// Exponentially distributed time-to-failure for a given MTBF.
  /// The MTBF must be positive — a rate of 1/mtbf is meaningless otherwise.
  static sim::SimTime sampleFailureTime(sim::Rng& rng, sim::SimTime mtbf) {
    if (mtbf <= sim::SimTime::zero()) {
      throw std::invalid_argument("scr: MTBF must be positive");
    }
    return sim::SimTime::seconds(rng.exponential(1.0 / mtbf.toSeconds()));
  }

 private:
  pmpi::Runtime& rt_;
  io::LocalStore& store_;
  rm::ResourceManager* rm_ = nullptr;
  sim::SimTime repairAfter_;
  mc::Chooser* chooser_ = nullptr;
  sim::SimTime quantum_;
  int injected_ = 0;
  sim::SimTime lastFailureAt_;
};

}  // namespace cbsim::scr
