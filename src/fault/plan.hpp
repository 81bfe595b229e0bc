#pragma once

// Deterministic fault schedules for the extoll fabric and the failure
// injector.
//
// Real Cluster-Booster fabrics do not fail like the textbook whole-node
// crash: links flap, SerDes retrain at reduced width, and individual
// packets are lost or arrive corrupted (DEEP-ER resiliency motivation,
// Kreuzer et al., arXiv:1904.07725).  A FaultPlan captures those modes,
// and node crashes beside them, as data so a scenario can schedule them up
// front and stay bit-reproducible:
//
//   * bandwidth-degradation windows on an endpoint's links, a trunk, every
//     link of a switch, or a NAM's links (factor in (0,1]; overlapping
//     windows compound multiplicatively),
//   * link down/up flaps (a window with factor 0: injected messages are
//     dropped, or detoured over a gen-1 bridge where one exists),
//   * whole-node crashes with a repair delay,
//   * per-message drop/corrupt probabilities, drawn from the engine's fault
//     RNG at injection time so the stream of decisions is identical across
//     process backends and --jobs values.
//
// The plan is one ordered list of faults.  It is the unit the description
// layer reads and writes, the chaos fuzzer generates and shrinks, and the
// mc explorer takes apart; nothing translates it into a second form.
//
// The plan itself is passive: extoll::Fabric consults it inside
// send()/occupy(), which is what makes faults interact naturally with
// contention (a degraded link stays busy longer, queueing everyone else)
// and with rerouting, and scr::FailureInjector::applyPlan schedules its
// crashes.  The plan must outlive the Fabric's use of it; pmpi::World owns
// the plan of the world it builds.

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace cbsim::hw {
struct MachineConfig;
}

namespace cbsim::fault {

/// What a fault hits: the links of an endpoint, a trunk (both directions),
/// a switch (every link attached to it) or a NAM device, or a whole node.
enum class Kind { Endpoint, Trunk, Switch, Nam, Crash };

/// One scheduled fault.
///
/// A window (every kind but Crash) runs the target's links at `bwFactor`
/// of their configured rate while [from, until) covers the current time;
/// factor 0 means down.  A crash kills the job running on node `target` at
/// `from`, loses the node's NVMe contents and takes the node out of the RM
/// pool until `restartAfter` later (the repair/reboot delay).
struct Fault {
  Kind kind = Kind::Endpoint;
  int target = 0;
  sim::SimTime from{};
  sim::SimTime until{};
  double bwFactor = 0.0;
  sim::SimTime restartAfter{};
  /// Correlated-burst tag: the faults one chaos storm produced share it;
  /// -1 when the fault arrived alone.  Diagnostic only.
  int storm = -1;

  [[nodiscard]] bool isWindow() const { return kind != Kind::Crash; }
  [[nodiscard]] bool covers(sim::SimTime t) const {
    return from <= t && t < until;
  }
};

/// The down window (factor 0) in `faults` of the same kind and target that
/// wholly contains `f`, when `f` is a degradation window (factor > 0);
/// nullptr otherwise.  Such a window can never take effect — "degraded
/// while down" is contradictory and unobservable, the classic symptom of a
/// typo'd index — so validateFor rejects it and the chaos normalizer drops
/// it.  (A flap *inside* a degradation window stays legal; the resilience
/// builtin uses exactly that shape.)
[[nodiscard]] const Fault* buriedBy(const Fault& f,
                                    const std::vector<Fault>& faults);

class FaultPlan {
 public:
  /// Probability that an injected (non-loopback) message is silently lost
  /// end-to-end.  One fault-RNG draw per message.
  double dropProb = 0.0;
  /// Probability that a message arrives but fails its CRC at the receiving
  /// NIC and is discarded there (it still occupies the path's links).
  double corruptProb = 0.0;

  /// Appends `f` after checking it: the target index must be non-negative,
  /// a window must end after it starts and have a factor in [0, 1], and a
  /// crash needs a positive restart delay (a node that never comes back is
  /// a machine shrink, not a fault the recovery loop can be expected to
  /// survive).  Throws std::invalid_argument.
  void add(const Fault& f);
  /// Runs endpoint `ep`'s links at `bwFactor` during [from, until).
  void degradeEndpoint(int ep, sim::SimTime from, sim::SimTime until,
                       double bwFactor) {
    add({.kind = Kind::Endpoint,
         .target = ep,
         .from = from,
         .until = until,
         .bwFactor = bwFactor});
  }
  /// Down/up flap: the endpoint's links carry nothing during the window.
  void flapEndpoint(int ep, sim::SimTime from, sim::SimTime until) {
    degradeEndpoint(ep, from, until, 0.0);
  }
  void crashNode(int node, sim::SimTime at, sim::SimTime restartAfter) {
    add({.kind = Kind::Crash,
         .target = node,
         .from = at,
         .restartAfter = restartAfter});
  }

  /// Combined bandwidth factor of `target`'s `kind` links at time `t`: the
  /// product, in insertion order, of the factors of the covering windows;
  /// 0 as soon as one of them is down.
  [[nodiscard]] double factor(Kind kind, int target, sim::SimTime t) const;

  /// Every fault, in insertion order.
  [[nodiscard]] const std::vector<Fault>& faults() const { return faults_; }
  /// The crashes, in (at, node) order: the order the failure injector
  /// schedules them in.
  [[nodiscard]] std::vector<Fault> crashes() const;

  /// True when the plan can affect a run at all; a default-constructed
  /// plan is inert and costs the fabric one pointer test per message.
  [[nodiscard]] bool active() const {
    return dropProb > 0.0 || corruptProb > 0.0 || !faults_.empty();
  }

  /// Validates every target against a concrete machine: endpoint, trunk,
  /// switch, NAM and node indices must exist, and no window may be buried
  /// in an outage (buriedBy).  Returns "" when valid, else a message naming
  /// the first offending fault; the description layer wraps it with
  /// origin:line:column context.
  [[nodiscard]] std::string validateFor(const hw::MachineConfig& config) const;

 private:
  std::vector<Fault> faults_;
};

}  // namespace cbsim::fault
