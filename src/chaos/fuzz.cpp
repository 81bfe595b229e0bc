#include "chaos/fuzz.hpp"

#include <stdexcept>

#include "desc/json.hpp"
#include "mc/desc.hpp"

namespace cbsim::chaos {

namespace {

mc::McScenario chaosScenarioFromDesc(desc::Reader& r) {
  if (r.has("fault")) {
    r.child("fault").fail(
        "a chaos scenario carries no fault plan: every trial installs the "
        "plan it generates");
  }
  return mc::scenarioFromDesc(r);
}

}  // namespace

template <class Io>
void fields(Io& io, ChaosSpec& spec) {
  io.string("name", spec.name);
  io.unsignedInt("seed", spec.seed);
  io.int32("trials", spec.trials);
  io.object("scenario", spec.scenario, chaosScenarioFromDesc, desc::required);
  io.object("profile", spec.profile, profileFromDesc, desc::required);
}

template <class Io>
void fields(Io& io, Artifact& a) {
  io.string("name", a.name, desc::required);
  io.unsignedInt("trial_seed", a.trialSeed, desc::required);
  io.string("violation", a.violation);
  io.object("scenario", a.scenario, mc::scenarioFromDesc, desc::required);
}

ChaosSpec chaosSpecFromDoc(const desc::Value& doc, const std::string& origin) {
  desc::Reader root(doc, origin);
  desc::Reader c = root.child("chaos");
  ChaosSpec spec;
  fields(c, spec);
  c.finish();
  if (spec.trials < 1) c.fail("trials must be >= 1");
  root.finish();
  return spec;
}

ChaosSpec chaosSpecFromDescText(const std::string& text,
                                const std::string& origin) {
  return chaosSpecFromDoc(desc::parse(text, origin), origin);
}

std::string dumpSpec(const ChaosSpec& spec) {
  desc::Value doc = desc::Value::object();
  doc.set("chaos", desc::write(spec));
  return desc::dump(doc);
}

std::uint64_t trialSeed(const ChaosSpec& spec, int trial) {
  // Golden-ratio stride; Rng's splitmix reseed decorrelates the streams.
  return spec.seed +
         static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ull;
}

FuzzResult fuzz(const ChaosSpec& spec, const FuzzOptions& opt) {
  const hw::MachineConfig world = mc::scenarioWorld(spec.scenario);
  FuzzResult r;
  for (int i = 0; i < spec.trials; ++i) {
    const std::uint64_t seed = trialSeed(spec, i);
    fault::FaultPlan plan = generatePlan(spec.profile, world, seed);
    ++r.trialsRun;
    std::string v = runTrial(spec.scenario, plan);
    if (v.empty()) continue;
    r.violation = true;
    r.badTrial = i;
    r.badSeed = seed;
    r.message = std::move(v);
    r.shrunk = std::move(plan);
    r.shrunkMessage = r.message;
    if (opt.shrink) {
      ShrinkOptions so;
      so.maxRuns = opt.maxShrinkRuns;
      ShrinkResult sr = shrinkPlan(spec.scenario, r.shrunk, so);
      r.shrunk = std::move(sr.plan);
      r.shrunkMessage = std::move(sr.violation);
      r.shrinkRuns = sr.runs;
      r.shrinkBudgetExhausted = sr.budgetExhausted;
    }
    break;
  }
  return r;
}

Artifact makeArtifact(const ChaosSpec& spec, const FuzzResult& r) {
  if (!r.violation) {
    throw std::invalid_argument("chaos: no violation, nothing to write");
  }
  Artifact a;
  a.name = spec.name;
  a.trialSeed = r.badSeed;
  a.violation = r.shrunkMessage;
  a.scenario = spec.scenario;
  a.scenario.fault = r.shrunk;
  return a;
}

std::string dumpArtifact(const Artifact& a) {
  desc::Value doc = desc::Value::object();
  doc.set("chaos_artifact", desc::write(a));
  return desc::dump(doc);
}

Artifact artifactFromDoc(const desc::Value& doc, const std::string& origin) {
  desc::Reader root(doc, origin);
  desc::Reader r = root.child("chaos_artifact");
  Artifact a;
  fields(r, a);
  r.finish();
  root.finish();
  return a;
}

Artifact artifactFromFile(const std::string& path) {
  return artifactFromDoc(desc::parse(desc::readFile(path), path), path);
}

std::string replayArtifact(const Artifact& a) {
  return runTrial(a.scenario, a.scenario.fault.value_or(fault::FaultPlan{}));
}

}  // namespace cbsim::chaos
