#include "fault/plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "hw/machine.hpp"

namespace cbsim::fault {

const Fault* buriedBy(const Fault& f, const std::vector<Fault>& faults) {
  if (!f.isWindow() || f.bwFactor == 0.0) return nullptr;
  for (const Fault& down : faults) {
    if (down.kind == f.kind && down.target == f.target &&
        down.bwFactor == 0.0 && down.from <= f.from && f.until <= down.until) {
      return &down;
    }
  }
  return nullptr;
}

void FaultPlan::add(const Fault& f) {
  if (f.target < 0) throw std::invalid_argument("fault: negative target index");
  if (!f.isWindow()) {
    if (f.restartAfter <= sim::SimTime::zero()) {
      throw std::invalid_argument(
          "fault: crash restart delay must be positive");
    }
  } else if (f.until <= f.from) {
    throw std::invalid_argument("fault: window must end after it starts");
  } else if (f.bwFactor < 0.0 || f.bwFactor > 1.0) {
    throw std::invalid_argument("fault: bandwidth factor outside [0, 1]");
  }
  faults_.push_back(f);
}

double FaultPlan::factor(Kind kind, int target, sim::SimTime t) const {
  double f = 1.0;
  for (const Fault& w : faults_) {
    if (w.kind == kind && w.target == target && w.covers(t)) {
      if (w.bwFactor == 0.0) return 0.0;
      f *= w.bwFactor;
    }
  }
  return f;
}

std::vector<Fault> FaultPlan::crashes() const {
  std::vector<Fault> out;
  for (const Fault& f : faults_) {
    if (!f.isWindow()) out.push_back(f);
  }
  std::stable_sort(out.begin(), out.end(), [](const Fault& a, const Fault& b) {
    if (a.from != b.from) return a.from < b.from;
    return a.target < b.target;
  });
  return out;
}

namespace {

const char* kindName(Kind k) {
  static constexpr const char* kNames[] = {"endpoint", "trunk", "switch",
                                           "nam", "node"};
  return kNames[static_cast<int>(k)];
}

std::string window(const Fault& w) {
  return "[" + std::to_string(w.from.toSeconds()) + "s, " +
         std::to_string(w.until.toSeconds()) + "s)";
}

}  // namespace

std::string FaultPlan::validateFor(const hw::MachineConfig& config) const {
  const int nodes = config.totalNodes();
  const int nams = static_cast<int>(config.nams.size());
  const std::string machine = " does not exist (machine '" + config.name +
                              "' has ";
  for (const Fault& f : faults_) {
    const std::string what =
        std::string(kindName(f.kind)) + " " + std::to_string(f.target);
    std::string has;
    switch (f.kind) {
      case Kind::Endpoint:
        if (f.target >= nodes + nams) {
          has = std::to_string(nodes + nams) + " endpoints: " +
                std::to_string(nodes) + " nodes + " + std::to_string(nams) +
                " NAMs";
        }
        break;
      case Kind::Trunk:
        if (f.target >= static_cast<int>(config.trunks.size())) {
          has = std::to_string(config.trunks.size()) + " trunks";
        }
        break;
      case Kind::Switch:
        if (f.target >= static_cast<int>(config.switches.size())) {
          has = std::to_string(config.switches.size()) + " switches";
        }
        break;
      case Kind::Nam:
        if (f.target >= nams) has = std::to_string(nams) + " NAMs";
        break;
      case Kind::Crash:
        if (f.target >= nodes) has = std::to_string(nodes) + " nodes";
        break;
    }
    if (!has.empty()) return what + machine + has + ")";
    if (const Fault* down = buriedBy(f, faults_)) {
      return what + ": degradation window " + window(f) +
             " lies entirely inside a down window " + window(*down) +
             " — it can never take effect";
    }
  }
  return "";
}

}  // namespace cbsim::fault
