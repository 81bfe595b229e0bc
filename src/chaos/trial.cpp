#include "chaos/trial.hpp"

#include "mc/choice.hpp"

namespace cbsim::chaos {

std::string runTrial(const mc::McScenario& scenario,
                     const fault::FaultPlan& plan) {
  mc::McScenario s = scenario;
  s.fault = plan;
  mc::DeterministicChooser chooser;
  return mc::makeRun(s)(chooser);
}

}  // namespace cbsim::chaos
