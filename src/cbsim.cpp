// cbsim — one front end for scenario campaigns, schedule exploration and
// fault fuzzing.
//
//   cbsim campaign --campaign fig8 --jobs 8 --out report.json
//   cbsim campaign --scenario-file examples/desc/table1-fig8.json --dump
//   cbsim mc --scenario-file examples/mc/drop-retransmit-race.json
//   cbsim chaos --scenario-file examples/chaos/transport-storm.json
//
// The subcommands share one argument reader and one description loader.
// In each of them --scenario-file F is desc::readFile(F) bound through the
// subcommand's schema, --validate checks the description and exits, --dump
// prints its canonical form and exits, and --help lists the flags.  Files
// are written through desc::writeFile, which checks the write after the
// close.  Exit codes: 0 clean; 1 failed scenario, invariant violation or
// reproduced replay; 2 usage, input or output error.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/desc.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "chaos/fuzz.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "mc/desc.hpp"
#include "mc/trace.hpp"
#include "sim/process.hpp"

namespace {

using namespace cbsim;

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

struct Flag {
  const char* name;
  const char* value;  ///< metavariable of the flag's value; nullptr: a switch
  const char* help;
};

/// Flags that mean the same in every subcommand.
const std::vector<Flag> kCommonFlags = {
    {"--scenario-file", "FILE", "description file (JSON, as --dump prints it)"},
    {"--validate", nullptr, "parse and validate the description, then exit"},
    {"--dump", nullptr, "print the description in canonical form, then exit"},
    {"--help", nullptr, "this text"},
};

class Args;

struct Command {
  const char* name;
  const char* synopsis;
  const char* summary;
  std::vector<Flag> flags;  ///< besides kCommonFlags
  int (*run)(const Args&);
};

const Flag* findFlag(const Command& cmd, const std::string& name) {
  for (const std::vector<Flag>* table : {&cmd.flags, &kCommonFlags}) {
    for (const Flag& f : *table) {
      if (name == f.name) return &f;
    }
  }
  return nullptr;
}

/// One subcommand's command line.  Unknown flags and missing values are
/// usage errors; integer values are checked when they are read.
class Args {
 public:
  Args(const Command& cmd, int argc, char** argv) : prog(argv[0]) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg =
          std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
      const Flag* flag = findFlag(cmd, arg);
      if (flag == nullptr) {
        throw std::invalid_argument("unknown argument '" + arg + "'");
      }
      if (flag->value == nullptr) {
        given_[arg];
      } else if (i + 1 < argc) {
        given_[arg] = argv[++i];
      } else {
        throw std::invalid_argument("missing value for " + arg);
      }
    }
  }

  [[nodiscard]] bool has(const std::string& flag) const {
    return given_.count(flag) != 0;
  }

  /// The flag's value; "" when the flag was not given.
  [[nodiscard]] std::string text(const std::string& flag) const {
    const auto it = given_.find(flag);
    return it == given_.end() ? std::string() : it->second;
  }

  [[nodiscard]] std::string required(const std::string& flag) const {
    if (!has(flag)) throw std::invalid_argument(flag + " is required");
    return text(flag);
  }

  /// An integer flag's value, which must be plain decimal digits (no sign,
  /// space or suffix) within [min, max]; nullopt when the flag was not
  /// given.
  [[nodiscard]] std::optional<std::uint64_t> integer(const std::string& flag,
                                                     std::uint64_t min,
                                                     std::uint64_t max) const {
    if (!has(flag)) return std::nullopt;
    const std::string s = text(flag);
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || end != s.data() + s.size() || v < min ||
        v > max) {
      throw std::invalid_argument(flag + " expects an integer in [" +
                                  std::to_string(min) + ", " +
                                  std::to_string(max) + "], got '" + s + "'");
    }
    return v;
  }

  const char* prog;  ///< argv[0], so that printed repro lines run as printed

 private:
  std::map<std::string, std::string> given_;
};

/// Prints a replay verdict; 1 when the violation reproduced.
int replayVerdict(const std::string& name, const std::string& violation) {
  if (violation.empty()) {
    std::printf("replay %s: schedule is clean on this binary\n", name.c_str());
    return 0;
  }
  std::printf("replay %s: VIOLATION: %s\n", name.c_str(), violation.c_str());
  return 1;
}

int campaignCommand(const Args& a) {
  campaign::RunnerOptions opts;
  if (a.text("--jobs") == "auto") {
    opts.jobs = 0;  // runner: one worker per hardware thread
  } else if (const auto jobs = a.integer("--jobs", 1, kIntMax)) {
    opts.jobs = static_cast<int>(*jobs);
  }
  if (a.has("--backend")) {
    const std::string b = a.text("--backend");
    if (b != "fiber" && b != "thread") {
      throw std::invalid_argument("--backend expects fiber or thread, got '" +
                                  b + "'");
    }
    sim::setDefaultProcessBackend(b == "fiber" ? sim::ProcessBackend::Fiber
                                               : sim::ProcessBackend::Thread);
  }
  opts.traceDir = a.text("--trace-dir");

  if (a.has("--list")) {
    for (const std::string& n : campaign::builtinCampaignNames()) {
      const campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
          campaign::builtinCampaignText(n), "builtin:" + n);
      std::printf("%-16s %s\n", n.c_str(), spec.description.c_str());
    }
    return 0;
  }
  if (a.has("--campaign") == a.has("--scenario-file")) {
    throw std::invalid_argument(
        "exactly one of --campaign or --scenario-file is required");
  }
  const bool builtin = a.has("--campaign");
  const std::string origin = builtin ? "builtin:" + a.text("--campaign")
                                     : a.text("--scenario-file");
  const campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
      builtin ? campaign::builtinCampaignText(a.text("--campaign"))
              : desc::readFile(origin),
      origin);
  if (a.has("--dump")) {
    std::fputs(desc::dump(campaign::toDesc(spec)).c_str(), stdout);
    return 0;
  }
  const campaign::Campaign c = campaign::buildCampaign(spec);
  if (a.has("--validate")) {
    std::printf("%s: ok — campaign \"%s\" (%zu scenarios): %s\n",
                origin.c_str(), c.name.c_str(), c.scenarios.size(),
                c.description.c_str());
    return 0;
  }

  // Create the output files before a possibly minutes-long run, so that a
  // bad path fails at once instead of after the campaign.
  const std::string out = a.text("--out");
  const std::string csv = a.text("--csv");
  for (const std::string& path : {out, csv}) {
    if (!path.empty()) desc::writeFile(path, "");
  }
  const campaign::CampaignReport rep = campaign::runCampaign(c, opts);
  if (out.empty()) {
    std::fputs(campaign::toJson(rep).c_str(), stdout);
  } else {
    desc::writeFile(out, campaign::toJson(rep));
  }
  if (!csv.empty()) desc::writeFile(csv, campaign::toCsv(rep));

  // Trace-write failures do not fail scenarios (the simulated results are
  // valid); surface them here so nobody discovers a missing trace file days
  // later.
  for (const campaign::ScenarioResult& s : rep.scenarios) {
    if (!s.traceWarning.empty()) {
      std::fprintf(stderr, "warning: scenario '%s': trace not written: %s\n",
                   s.name.c_str(), s.traceWarning.c_str());
    }
  }
  const double serial = rep.hostScenarioSecSum();
  std::fprintf(stderr,
               "campaign %-12s %3zu scenarios  jobs=%d  backend=%s  "
               "wall %.2fs  (scenario sum %.2fs, speedup %.2fx)  "
               "failures=%d\n",
               rep.campaign.c_str(), rep.scenarios.size(), rep.jobsUsed,
               sim::toString(sim::defaultProcessBackend()),
               rep.hostElapsedSec, serial,
               rep.hostElapsedSec > 0 ? serial / rep.hostElapsedSec : 1.0,
               rep.failedCount());
  return rep.failedCount() == 0 ? 0 : 1;
}

int mcCommand(const Args& a) {
  const std::string file = a.required("--scenario-file");
  mc::McScenario scenario =
      mc::scenarioFromDoc(desc::parse(desc::readFile(file), file), file);
  scenario.breakDedup = a.has("--break-dedup");
  if (const auto n = a.integer("--max-schedules", 1,
                               std::numeric_limits<long>::max())) {
    scenario.budget.maxSchedules = static_cast<long>(*n);
  }
  if (const auto n = a.integer("--max-depth", 1, kIntMax)) {
    scenario.budget.maxDepth = static_cast<int>(*n);
  }
  if (a.has("--no-sleep-sets")) scenario.budget.sleepSets = false;

  if (a.has("--dump")) {
    std::fputs(mc::dumpScenario(scenario).c_str(), stdout);
    return 0;
  }
  if (a.has("--validate")) {
    // makeRun validates the family-specific parameters too.
    (void)mc::makeRun(scenario);
    std::printf("%s: ok (%s, family %s)\n", file.c_str(),
                scenario.name.c_str(), scenario.family.c_str());
    return 0;
  }
  if (a.has("--replay")) {
    const mc::Trace trace = mc::readTraceFile(a.text("--replay"));
    if (trace.scenario != scenario.name) {
      throw std::invalid_argument("trace was recorded for scenario \"" +
                                  trace.scenario + "\", file describes \"" +
                                  scenario.name + "\"");
    }
    return replayVerdict(scenario.name,
                         mc::replay(mc::makeRun(scenario), trace.choices));
  }

  const mc::ExploreResult res = mc::exploreScenario(scenario);
  if (!res.violation) {
    std::printf(
        "mc %s: %ld schedule(s) explored clean (%ld pruned as "
        "equivalent, %ld deferred on budget)%s\n",
        scenario.name.c_str(), res.schedulesRun, res.equivalentPruned,
        res.deferredBranches,
        res.complete() ? "" : " — INCOMPLETE, raise the budget");
    return 0;
  }
  std::printf("mc %s: VIOLATION after %ld schedule(s): %s\n",
              scenario.name.c_str(), res.schedulesRun, res.message.c_str());
  mc::Trace trace;
  trace.scenario = scenario.name;
  trace.message = res.message;
  trace.choices = res.badSchedule;
  trace.decisions = res.badTrace;
  const std::string out = a.has("--trace-out")
                              ? a.text("--trace-out")
                              : scenario.name + ".trace.json";
  desc::writeFile(out, mc::dumpTrace(trace));
  std::printf("trace written to %s\n", out.c_str());
  std::printf("repro: %s mc --scenario-file %s%s --replay %s\n", a.prog,
              file.c_str(), scenario.breakDedup ? " --break-dedup" : "",
              out.c_str());
  return 1;
}

int chaosCommand(const Args& a) {
  const bool breakDedup = a.has("--break-dedup");
  const auto trials = a.integer("--trials", 1, kIntMax);
  const auto seed =
      a.integer("--seed", 0, std::numeric_limits<std::uint64_t>::max());
  chaos::FuzzOptions opt;
  opt.shrink = !a.has("--no-shrink");
  if (const auto n = a.integer("--max-shrink-runs", 1, kIntMax)) {
    opt.maxShrinkRuns = static_cast<int>(*n);
  }

  // An artifact embeds its scenario: replay needs only the defect flag back,
  // never the spec file.
  if (a.has("--replay")) {
    chaos::Artifact artifact = chaos::artifactFromFile(a.text("--replay"));
    artifact.scenario.breakDedup = breakDedup;
    return replayVerdict(artifact.name, chaos::replayArtifact(artifact));
  }

  const std::string file = a.required("--scenario-file");
  chaos::ChaosSpec spec =
      chaos::chaosSpecFromDoc(desc::parse(desc::readFile(file), file), file);
  spec.scenario.breakDedup = breakDedup;
  if (trials) spec.trials = static_cast<int>(*trials);
  if (seed) spec.seed = *seed;

  if (a.has("--dump")) {
    std::fputs(chaos::dumpSpec(spec).c_str(), stdout);
    return 0;
  }
  if (a.has("--validate")) {
    // makeRun checks the family parameters, generateSchedule the profile's
    // target filters against the scenario's machine.
    (void)mc::makeRun(spec.scenario);
    (void)chaos::generateSchedule(spec.profile,
                                  mc::scenarioWorld(spec.scenario),
                                  chaos::trialSeed(spec, 0));
    std::printf("%s: ok (%s, %d trial(s), scenario %s)\n", file.c_str(),
                spec.name.c_str(), spec.trials, spec.scenario.name.c_str());
    return 0;
  }

  const chaos::FuzzResult res = chaos::fuzz(spec, opt);
  if (!res.violation) {
    std::printf("chaos %s: %d trial(s) clean\n", spec.name.c_str(),
                res.trialsRun);
    return 0;
  }
  std::printf("chaos %s: VIOLATION at trial %d (seed %llu): %s\n",
              spec.name.c_str(), res.badTrial,
              static_cast<unsigned long long>(res.badSeed),
              res.message.c_str());
  std::printf("shrunk to %zu event(s) in %d run(s)%s: %s\n",
              res.shrunk.events.size(), res.shrinkRuns,
              res.shrinkBudgetExhausted ? " (budget exhausted)" : "",
              res.shrunkMessage.c_str());
  const std::string out = a.has("--artifact-out")
                              ? a.text("--artifact-out")
                              : spec.name + ".artifact.json";
  desc::writeFile(out, chaos::dumpArtifact(chaos::makeArtifact(spec, res)));
  std::printf("artifact written to %s\n", out.c_str());
  std::printf("repro: %s chaos%s --replay %s\n", a.prog,
              breakDedup ? " --break-dedup" : "", out.c_str());
  return 1;
}

const Command kCommands[] = {
    {"campaign",
     "(--campaign NAME | --scenario-file FILE) [options]",
     "Runs a scenario campaign, one isolated world per scenario, on a worker\n"
     "pool and writes a report that is byte-identical for any --jobs and\n"
     "--backend.  Host timing goes to stderr only.",
     {
         {"--campaign", "NAME", "a built-in campaign (see --list)"},
         {"--list", nullptr, "list the built-in campaigns, then exit"},
         {"--jobs", "N|auto", "worker threads (default 1; auto: all)"},
         {"--backend", "fiber|thread", "process backend of the worlds"},
         {"--out", "FILE", "write the JSON report to FILE (default: stdout)"},
         {"--csv", "FILE", "also write a flat CSV report to FILE"},
         {"--trace-dir", "DIR",
          "write one Chrome trace per scenario into DIR"},
     },
     campaignCommand},
    {"mc",
     "--scenario-file FILE [options]",
     "Re-runs a small world under every schedule a bounded search reaches and\n"
     "checks the transport and recovery invariants after each one.",
     {
         {"--max-schedules", "N", "override the schedule budget"},
         {"--max-depth", "N", "override the branching depth"},
         {"--no-sleep-sets", nullptr,
          "exhaustive enumeration (no equivalence pruning)"},
         {"--break-dedup", nullptr,
          "enable the seeded transport defect (test-only)"},
         {"--trace-out", "FILE",
          "violating trace (default: <name>.trace.json)"},
         {"--replay", "FILE", "re-run the schedule of a trace file"},
     },
     mcCommand},
    {"chaos",
     "(--scenario-file FILE | --replay FILE) [options]",
     "Fuzzes seed-deterministic fault schedules against a scenario's\n"
     "invariants and shrinks the first violation to a replayable artifact.",
     {
         {"--trials", "N", "override the trial budget"},
         {"--seed", "S", "override the base seed"},
         {"--break-dedup", nullptr,
          "enable the seeded transport defect (test-only)"},
         {"--no-shrink", nullptr, "keep the first failing schedule as-is"},
         {"--max-shrink-runs", "N", "shrink run budget (default 400)"},
         {"--artifact-out", "FILE",
          "counterexample (default: <name>.artifact.json)"},
         {"--replay", "FILE", "re-run an artifact instead of fuzzing"},
     },
     chaosCommand},
};

void printUsage(const Command& c) {
  std::printf("usage: cbsim %s %s\n\n%s\n\n", c.name, c.synopsis, c.summary);
  for (const std::vector<Flag>* table : {&c.flags, &kCommonFlags}) {
    for (const Flag& f : *table) {
      const std::string lhs =
          f.value == nullptr ? f.name : std::string(f.name) + " " + f.value;
      std::printf("  %-22s  %s\n", lhs.c_str(), f.help);
    }
  }
}

int usage(std::FILE* to, int code) {
  std::fprintf(to,
               "usage: cbsim <campaign|mc|chaos> [options]\n"
               "       cbsim <command> --help\n"
               "\n"
               "exit codes: 0 clean; 1 failed scenario, invariant violation "
               "or reproduced\nreplay; 2 usage, input or output error\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  if (name == "--help" || name == "-h") return usage(stdout, 0);
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (name == c.name) cmd = &c;
  }
  if (cmd == nullptr) {
    if (!name.empty()) {
      std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0], name.c_str());
    }
    return usage(stderr, 2);
  }

  int code = 2;
  try {
    const Args args(*cmd, argc, argv);
    if (args.has("--help")) {
      printUsage(*cmd);
      code = 0;
    } else {
      code = cmd->run(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s %s: %s\n", argv[0], cmd->name, e.what());
  }
  // Reports and summaries on stdout are output too.
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "%s %s: cannot write standard output\n", argv[0],
                 cmd->name);
    return 2;
  }
  return code;
}
