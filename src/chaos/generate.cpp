#include "chaos/generate.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"

namespace cbsim::chaos {

namespace {

/// Switch each endpoint hangs off: node endpoints in group order, then NAM
/// endpoints — the same enumeration Machine/Fabric use.
std::vector<int> endpointSwitches(const hw::MachineConfig& m) {
  std::vector<int> sw;
  for (const hw::NodeGroupSpec& g : m.groups) {
    for (int i = 0; i < g.count; ++i) sw.push_back(g.switchId);
  }
  for (const hw::NamAttachment& nam : m.nams) sw.push_back(nam.switchId);
  return sw;
}

std::vector<int> pool(const std::vector<int>& filter, int count,
                      const char* what) {
  std::vector<int> out;
  if (filter.empty()) {
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) out.push_back(i);
    return out;
  }
  for (int t : filter) {
    if (t < 0 || t >= count) {
      throw std::invalid_argument(
          "chaos: " + std::string(what) + " filter entry " +
          std::to_string(t) + " out of range [0, " + std::to_string(count) +
          ")");
    }
    out.push_back(t);
  }
  return out;
}

int pick(sim::Rng& rng, const std::vector<int>& from) {
  return from[rng.below(from.size())];
}

}  // namespace

fault::FaultPlan generatePlan(const ChaosProfile& p,
                              const hw::MachineConfig& machine,
                              std::uint64_t trialSeed) {
  if (std::string err = p.validate(); !err.empty()) {
    throw std::invalid_argument("chaos: profile: " + err);
  }
  const int nodes = machine.totalNodes();
  const int nams = static_cast<int>(machine.nams.size());
  const std::vector<int> endpoints =
      pool(p.endpointTargets, nodes + nams, "endpoint");
  const std::vector<int> trunks =
      pool(p.trunkTargets, static_cast<int>(machine.trunks.size()), "trunk");
  const std::vector<int> switches = pool(
      p.switchTargets, static_cast<int>(machine.switches.size()), "switch");
  const std::vector<int> namPool = pool(p.namTargets, nams, "nam");
  const std::vector<int> crashNodes = pool(p.crashTargets, nodes, "node");
  const std::vector<int> epSwitch = endpointSwitches(machine);

  sim::Rng rng(trialSeed);
  fault::FaultPlan plan;
  if (p.dropProbMax > 0) plan.dropProb = rng.uniform(0.0, p.dropProbMax);
  if (p.corruptProbMax > 0) {
    plan.corruptProb = rng.uniform(0.0, p.corruptProbMax);
  }
  std::vector<fault::Fault> faults;
  // Draws happen in statement order (never inside one argument list, whose
  // evaluation order C++ leaves open).  A window starts out down.
  const auto window = [&](fault::Kind kind, int target, double from,
                          int storm) -> fault::Fault& {
    const double until = from + rng.uniform(p.windowMinSec, p.windowMaxSec);
    return faults.emplace_back(
        fault::Fault{.kind = kind,
                     .target = target,
                     .from = sim::SimTime::seconds(from),
                     .until = sim::SimTime::seconds(until),
                     .storm = storm});
  };
  const auto crash = [&](int node, double at, int storm) {
    const double restart =
        rng.uniform(p.crashRestartMinSec, p.crashRestartMaxSec);
    faults.push_back({.kind = fault::Kind::Crash,
                      .target = node,
                      .from = sim::SimTime::seconds(at),
                      .restartAfter = sim::SimTime::seconds(restart),
                      .storm = storm});
  };

  const auto arrivals = [&](double rateHz, bool eligible) {
    std::vector<double> at;
    if (rateHz <= 0 || !eligible) return at;
    double t = rng.exponential(rateHz);
    while (t < p.horizonSec) {
      at.push_back(t);
      t += rng.exponential(rateHz);
    }
    return at;
  };
  const auto windows = [&](fault::Kind kind, double rateHz,
                           const std::vector<int>& targets) {
    for (double at : arrivals(rateHz, !targets.empty())) {
      const int target = pick(rng, targets);
      fault::Fault& w = window(kind, target, at, -1);
      if (rng.uniform() >= p.downWeight) {
        w.bwFactor = rng.uniform(p.degradeMinFactor, p.degradeMaxFactor);
      }
    }
  };

  windows(fault::Kind::Endpoint, p.endpointRateHz, endpoints);
  windows(fault::Kind::Trunk, p.trunkRateHz, trunks);
  windows(fault::Kind::Switch, p.switchRateHz, switches);
  windows(fault::Kind::Nam, p.namRateHz, namPool);

  for (double at : arrivals(p.crashRateHz, !crashNodes.empty())) {
    crash(pick(rng, crashNodes), at, -1);
  }

  // Storms: one arrival expands into a correlated burst.  A switch storm
  // is the realistic cascade — the switch goes dark and the endpoints
  // behind it flap as their links retrain; a crash storm is a correlated
  // multi-node failure (shared PSU / cooling group).  The coin between
  // them is drawn only when both shapes are possible, keeping the draw
  // sequence input-determined.
  int stormId = 0;
  const bool canSwitchStorm = !switches.empty();
  const bool canCrashStorm = !crashNodes.empty();
  for (double at : arrivals(p.stormRateHz, canSwitchStorm || canCrashStorm)) {
    const int size =
        p.stormMinSize +
        static_cast<int>(rng.below(
            static_cast<std::uint64_t>(p.stormMaxSize - p.stormMinSize + 1)));
    const bool switchStorm =
        canSwitchStorm && (!canCrashStorm || rng.uniform() < 0.5);
    if (switchStorm) {
      const int sw = pick(rng, switches);
      window(fault::Kind::Switch, sw, at, stormId);
      std::vector<int> behind;
      for (int ep : endpoints) {
        if (epSwitch[static_cast<std::size_t>(ep)] == sw) behind.push_back(ep);
      }
      for (int i = 1; i < size && !behind.empty(); ++i) {
        const int ep = pick(rng, behind);
        window(fault::Kind::Endpoint, ep,
               at + rng.uniform(0.0, p.stormSpanSec), stormId);
      }
    } else {
      // Distinct victims: a correlated multi-node failure takes down
      // different nodes, and sampling without replacement keeps the burst
      // size honest when the pool is small.
      std::vector<int> victims = crashNodes;
      for (int i = 0; i < size && !victims.empty(); ++i) {
        const std::size_t vi = rng.below(victims.size());
        const int node = victims[vi];
        victims.erase(victims.begin() + static_cast<std::ptrdiff_t>(vi));
        crash(node, at + rng.uniform(0.0, p.stormSpanSec), stormId);
      }
    }
    ++stormId;
  }

  return normalized(plan, std::move(faults));
}

fault::FaultPlan normalized(const fault::FaultPlan& p,
                            std::vector<fault::Fault> faults) {
  const auto key = [](const fault::Fault& f) {
    return std::make_tuple(f.from, static_cast<int>(f.kind), f.target, f.until,
                           f.bwFactor, f.restartAfter, f.storm);
  };
  std::sort(faults.begin(), faults.end(),
            [&](const fault::Fault& a, const fault::Fault& b) {
              return key(a) < key(b);
            });
  fault::FaultPlan out;
  out.dropProb = p.dropProb;
  out.corruptProb = p.corruptProb;
  for (const fault::Fault& f : faults) {
    if (fault::buriedBy(f, faults) == nullptr) out.add(f);
  }
  return out;
}

}  // namespace cbsim::chaos
