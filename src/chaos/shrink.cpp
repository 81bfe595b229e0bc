#include "chaos/shrink.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "chaos/generate.hpp"

namespace cbsim::chaos {

namespace {

/// Budgeted oracle: runs the trial, counts the run.  nullopt = budget
/// exhausted (the candidate was not run).
struct Oracle {
  const mc::McScenario& base;
  int maxRuns;
  int runs = 0;
  bool exhausted = false;

  std::optional<std::string> test(const fault::FaultPlan& cand) {
    if (runs >= maxRuns) {
      exhausted = true;
      return std::nullopt;
    }
    ++runs;
    return runTrial(base, cand);
  }
};

}  // namespace

ShrinkResult shrinkPlan(const mc::McScenario& base,
                        const fault::FaultPlan& failing,
                        const ShrinkOptions& opt) {
  if (opt.maxRuns < 1) {
    throw std::invalid_argument("chaos: shrink budget must allow >= 1 run");
  }
  Oracle oracle{base, opt.maxRuns};
  fault::FaultPlan best = normalized(failing, failing.faults());
  const std::optional<std::string> first = oracle.test(best);
  if (first->empty()) {
    throw std::invalid_argument(
        "chaos: asked to shrink a plan that does not fail");
  }
  std::string bestMsg = *first;

  // Adopts the candidate when it still fails (any violation counts).
  const auto tryAdopt = [&](fault::FaultPlan cand) {
    const std::optional<std::string> v = oracle.test(cand);
    if (!v || v->empty()) return false;
    best = std::move(cand);
    bestMsg = *v;
    return true;
  };

  bool progress = true;
  while (progress && !oracle.exhausted) {
    progress = false;

    // Pass 1: ddmin-style fault removal — whole list first, then halving
    // chunks down to single faults.  Removing the biggest chunks first is
    // what gets "drop_prob alone reproduces it" in two runs instead of n.
    for (std::size_t chunk = best.faults().size();
         chunk >= 1 && !oracle.exhausted; chunk /= 2) {
      std::size_t start = 0;
      while (start < best.faults().size() && !oracle.exhausted) {
        const std::size_t n = std::min(chunk, best.faults().size() - start);
        std::vector<fault::Fault> kept = best.faults();
        kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(start),
                   kept.begin() + static_cast<std::ptrdiff_t>(start + n));
        if (tryAdopt(normalized(best, std::move(kept)))) {
          progress = true;  // same start now names the next chunk
        } else {
          start += n;
        }
      }
      if (chunk == 1) break;
    }

    // Pass 2: zero the trial-constant probabilities.
    if (best.dropProb > 0 && !oracle.exhausted) {
      fault::FaultPlan cand = best;
      cand.dropProb = 0.0;
      if (tryAdopt(std::move(cand))) progress = true;
    }
    if (best.corruptProb > 0 && !oracle.exhausted) {
      fault::FaultPlan cand = best;
      cand.corruptProb = 0.0;
      if (tryAdopt(std::move(cand))) progress = true;
    }

    // Pass 3: halve durations (window widths, crash restart delays) with a
    // floor, sweeping until a full sweep shrinks nothing.  Candidates are
    // rebuilt from `best` each time because adoption renormalizes and may
    // reorder or drop faults.
    bool shrunkAny = true;
    while (shrunkAny && !oracle.exhausted) {
      shrunkAny = false;
      for (std::size_t i = 0; i < best.faults().size() && !oracle.exhausted;
           ++i) {
        std::vector<fault::Fault> faults = best.faults();
        fault::Fault& f = faults[i];
        const sim::SimTime span =
            f.isWindow() ? f.until - f.from : f.restartAfter;
        const sim::SimTime halved = std::max(opt.minWindow, span / 2);
        if (halved >= span) continue;
        if (f.isWindow()) {
          f.until = f.from + halved;
        } else {
          f.restartAfter = halved;
        }
        if (tryAdopt(normalized(best, std::move(faults)))) {
          shrunkAny = true;
          progress = true;
        }
      }
    }
  }

  ShrinkResult res;
  res.plan = std::move(best);
  res.violation = std::move(bestMsg);
  res.runs = oracle.runs;
  res.budgetExhausted = oracle.exhausted;
  return res;
}

}  // namespace cbsim::chaos
