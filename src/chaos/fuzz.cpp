#include "chaos/fuzz.hpp"

#include <stdexcept>

#include "desc/json.hpp"
#include "mc/desc.hpp"

namespace cbsim::chaos {

namespace {

ChaosSpec chaosSpecFromDesc(desc::Reader& r) {
  ChaosSpec spec;
  spec.name = r.stringAt("name", spec.name);
  spec.seed = r.uintAt("seed", spec.seed);
  spec.trials = r.int32At("trials", spec.trials);
  if (spec.trials < 1) r.fail("trials must be >= 1");
  desc::Reader sc = r.child("scenario");
  if (sc.has("fault")) {
    sc.child("fault").fail(
        "a chaos scenario carries no fault plan: every trial installs the "
        "plan it generates");
  }
  spec.scenario = mc::scenarioFromDesc(sc);
  desc::Reader pr = r.child("profile");
  spec.profile = profileFromDesc(pr);
  r.finish();
  return spec;
}

desc::Value toDesc(const ChaosSpec& spec) {
  desc::Value v = desc::Value::object();
  v.set("name", desc::Value::string(spec.name));
  v.set("seed", desc::Value::unsignedInt(spec.seed));
  v.set("trials", desc::Value::integer(spec.trials));
  v.set("scenario", mc::toDesc(spec.scenario));
  v.set("profile", toDesc(spec.profile));
  return v;
}

}  // namespace

ChaosSpec chaosSpecFromDoc(const desc::Value& doc, const std::string& origin) {
  desc::Reader root(doc, origin);
  desc::Reader c = root.child("chaos");
  ChaosSpec spec = chaosSpecFromDesc(c);
  root.finish();
  return spec;
}

ChaosSpec chaosSpecFromDescText(const std::string& text,
                                const std::string& origin) {
  return chaosSpecFromDoc(desc::parse(text, origin), origin);
}

std::string dumpSpec(const ChaosSpec& spec) {
  desc::Value doc = desc::Value::object();
  doc.set("chaos", toDesc(spec));
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
  desc::Value v = desc::Value::object();
  v.set("name", desc::Value::string(a.name));
  v.set("trial_seed", desc::Value::unsignedInt(a.trialSeed));
  v.set("violation", desc::Value::string(a.violation));
  v.set("scenario", mc::toDesc(a.scenario));
  desc::Value doc = desc::Value::object();
  doc.set("chaos_artifact", std::move(v));
  return desc::dump(doc);
}

Artifact artifactFromDoc(const desc::Value& doc, const std::string& origin) {
  desc::Reader root(doc, origin);
  desc::Reader r = root.child("chaos_artifact");
  Artifact a;
  a.name = r.stringAt("name");
  a.trialSeed = r.uintAt("trial_seed");
  a.violation = r.stringAt("violation", "");
  desc::Reader sc = r.child("scenario");
  a.scenario = mc::scenarioFromDesc(sc);
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
