// cbsim_bench — end-to-end and per-layer host benchmark of three campaign
// workloads (fig8, halo-16k, resilience-pool; README.md says why each).
//
//   cbsim_bench --workload halo-16k --seed 1 --seconds 40 --trace 0
//   cbsim_bench --workload fig8 --seed 7 --trace 1 --out fig8-layers.json
//
// Timed run (--trace 0): the workload runs through the public campaign
// calls cbsim_campaign makes (campaignSpecFromDescText -> buildCampaign ->
// runCampaign -> writeJson), once per pass, each pass in its own forked
// child so wait4 reports that pass's peak RSS.  Passes repeat while the
// run still fits in --seconds; pass 0 uses --seed, later passes seeds
// derived from it.  Every pass is checked against the committed report
// digests (expected/digests.json) or, for seeds without one, against the
// workload's invariants.  Set-up time is sampled afterwards, each sample in
// a fresh child, and every host time is rescaled to the reference host's
// speed by a reference kernel timed in slices across the run (measure.hpp).
//
// Traced run (--trace 1): one pass in-process for the campaign-layer
// numbers, then every world rebuilt through the public layer constructors
// with a span around each layer (src/worlds.cpp) — once with the shipped
// metrics-only tracer, once without — and the isolated layer probes
// (src/probes.cpp).  The replica worlds must reproduce the pass's report
// exactly, or no per-layer number is printed.
//
// Standard output: a line recording the host, every pass and every check,
// then, as the last line, {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "campaign/desc.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "sim/process.hpp"
#include "xpic/config.hpp"

#include "measure.hpp"
#include "probes.hpp"
#include "worlds.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CBSIM_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CBSIM_BENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace cbsim;
using e2e::hostSeconds;
using e2e::median;
using e2e::timed;

/// This package's source directory: workloads/ and expected/ live there.
constexpr const char* kDataDir = CBSIM_E2E_DIR;

struct Workload {
  const char* name;
  int jobs;
  /// Median of e2e::referenceKernelSeconds on `jobs` threads on the
  /// reference host (README.md).
  double referenceKernelSec;
  /// How much slower the workload's passes run when the kernel runs 1%
  /// slower, in percent, as fitted on the reference host (README.md).  A
  /// run's pass times are scaled by (referenceKernelSec / the kernel median
  /// it measures) ^ elasticity.
  double elasticity;
  /// Non-empty when --seed cannot change the simulated results.
  const char* seedNote;
};

constexpr const char* kFig8SeedNote =
    "fig8 ignores the seed: runXpic builds every world with the engine's "
    "default seed, so --seed changes only the report's seed fields";
constexpr const char* kHaloSeedNote =
    "the halo stencil draws no random numbers, so --seed changes only the "
    "report's seed fields";

constexpr Workload kWorkloads[] = {
    {"fig8", 1, 0.0092, 1.7, kFig8SeedNote},
    {"halo-16k", 1, 0.0092, 1.3, kHaloSeedNote},
    {"resilience-pool", 4, 0.0092, 2.0, ""},
    // Smoke shapes of the same three families (ctest): seconds, not minutes.
    {"fig8-tiny", 1, 0.0092, 1.7, kFig8SeedNote},
    {"halo-tiny", 1, 0.0092, 1.3, kHaloSeedNote},
    {"resilience-tiny", 4, 0.0092, 2.0, ""},
};

// ---- single-line JSON -------------------------------------------------------

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) {
    return raw(key, desc::formatNumber(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, quoted(v));
  }
  JsonObject& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "]";
}

// ---- one pass of the workload ------------------------------------------------

/// FNV-1a of the report JSON with every scenario seed zeroed.  The seed
/// fields are the only part of a fig8 or halo report --seed can change, so
/// one committed digest covers every seed of those workloads.
std::string reportDigest(campaign::CampaignReport rep) {
  for (campaign::ScenarioResult& s : rep.scenarios) s.seed = 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : campaign::toJson(rep)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Pass {
  campaign::CampaignSpec spec;
  campaign::CampaignReport report;
  double wallSec = 0;    ///< description read -> report serialized
  double reportSec = 0;  ///< writeJson alone
  double reportBytes = 0;
  std::string digest;
};

Pass runPass(const std::string& path, std::uint64_t seed, int jobs) {
  Pass p;
  const double t0 = hostSeconds();
  p.spec = campaign::campaignSpecFromDescText(desc::readFile(path), path);
  p.spec.baseSeed = seed;
  const campaign::Campaign c = campaign::buildCampaign(p.spec);
  p.report = campaign::runCampaign(c, campaign::withJobs(jobs));
  std::ostringstream os;
  timed(p.reportSec, [&] { campaign::writeJson(p.report, os); });
  p.wallSec = hostSeconds() - t0;
  p.reportBytes = static_cast<double>(os.tellp());
  p.digest = reportDigest(p.report);
  return p;
}

double sumMetric(const campaign::CampaignReport& rep, const std::string& key) {
  double sum = 0;
  for (const campaign::ScenarioResult& s : rep.scenarios) {
    const auto it = s.metrics.find(key);
    if (it != s.metrics.end()) sum += it->second;
  }
  return sum;
}

/// Committed digests: workload -> seed (or "*" for every seed) -> digest.
class Expected {
 public:
  explicit Expected(const std::string& path)
      : doc_(desc::parse(desc::readFile(path), path)) {}

  /// Empty when nothing is committed for this workload and seed.
  [[nodiscard]] std::string digest(const std::string& workload,
                                   std::uint64_t seed) const {
    const desc::Value* w = doc_.find(workload);
    if (w == nullptr) return {};
    const desc::Value* d = w->find("*");
    if (d == nullptr) d = w->find(std::to_string(seed));
    return d == nullptr ? std::string{} : d->asString();
  }

 private:
  desc::Value doc_;
};

/// Scenario errors, a digest mismatch and broken workload invariants, each
/// counted once and described in `problems`.
int checkPass(const Pass& p, const std::string& expectedDigest,
              std::vector<std::string>& problems) {
  int failed = 0;
  for (const campaign::ScenarioResult& s : p.report.scenarios) {
    if (!s.error.empty()) {
      ++failed;
      problems.push_back(s.name + ": " + s.error);
    }
  }
  if (!expectedDigest.empty() && p.digest != expectedDigest) {
    ++failed;
    problems.push_back("report digest " + p.digest + " != committed " +
                       expectedDigest);
  }
  if (p.spec.kind == "resilience") {
    // Seeds without a committed digest still have to finish every job (or
    // burn the whole relaunch budget), reach every peer and checkpoint.
    for (const campaign::ScenarioResult& s : p.report.scenarios) {
      if (!s.error.empty()) continue;
      const auto v = [&](const char* k) { return s.values.at(k); };
      if ((v("done") != 1 && v("attempts") != p.spec.resilience.maxAttempts) ||
          v("unreachable_peers") != 0 || v("checkpoints_written") <= 0) {
        ++failed;
        problems.push_back(s.name + ": resilience invariant broken");
      }
    }
  }
  return failed;
}

// ---- timed run ----------------------------------------------------------------

/// What a pass's child process hands back through the pipe.
struct PassSummary {
  double wallSec = 0;
  double events = 0;
  int scenarios = 0;
  int failed = 0;
  char digest[17] = {};
  char problem[240] = {};
};

struct PassSample {
  std::uint64_t seed = 0;
  PassSummary summary;
  double rssMb = 0;
  bool digestChecked = false;
};

bool writeAll(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool readAll(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// What `fn` returned in a forked child, with the child's peak RSS.
template <typename T>
struct ChildResult {
  T value{};
  bool ok = false;  ///< the child handed back a value and exited with 0
  int status = 0;
  double rssMb = 0;
};

/// Runs `fn` in a forked child, so the child's memory, unfreed, goes back
/// with the process and wait4 reports the child's own peak RSS.
template <typename T, typename Fn>
ChildResult<T> inChild(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    // _exit: nothing is freed or torn down, and no parent buffer is
    // flushed twice.
    try {
      const T value = fn();
      _exit(writeAll(fds[1], &value, sizeof(value)) ? 0 : 1);
    } catch (...) {
      _exit(1);
    }
  }
  close(fds[1]);
  ChildResult<T> r;
  const bool got = readAll(fds[0], &r.value, sizeof(r.value));
  close(fds[0]);
  struct rusage ru {};
  while (wait4(pid, &r.status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.ok = got && WIFEXITED(r.status) && WEXITSTATUS(r.status) == 0;
  r.rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

PassSample forkPass(const std::string& path, std::uint64_t seed, int jobs,
                    const std::string& expectedDigest) {
  const ChildResult<PassSummary> child = inChild<PassSummary>([&] {
    PassSummary s;
    try {
      const Pass p = runPass(path, seed, jobs);
      std::vector<std::string> problems;
      s.failed = checkPass(p, expectedDigest, problems);
      s.wallSec = p.wallSec;
      s.events = sumMetric(p.report, "engine.events_processed");
      s.scenarios = static_cast<int>(p.report.scenarios.size());
      std::snprintf(s.digest, sizeof(s.digest), "%s", p.digest.c_str());
      if (!problems.empty()) {
        std::snprintf(s.problem, sizeof(s.problem), "%s", problems[0].c_str());
      }
    } catch (const std::exception& e) {
      s.failed = 1;
      std::snprintf(s.problem, sizeof(s.problem), "%s", e.what());
    }
    return s;
  });
  PassSample sample;
  sample.seed = seed;
  sample.digestChecked = !expectedDigest.empty();
  sample.summary = child.value;
  sample.rssMb = child.rssMb;
  if (!child.ok) {
    sample.summary = PassSummary{};
    sample.summary.failed = 1;
    std::snprintf(sample.summary.problem, sizeof(sample.summary.problem),
                  "pass process ended abnormally (status %d)", child.status);
  }
  return sample;
}

/// Host seconds to parse and build the campaign, then build and launch one
/// world of each shape without running it (teardown excluded).
double setupOnce(const std::string& path, std::uint64_t seed) {
  e2e::LayerSpans spans;
  e2e::WorldCounts counts;
  const double t0 = hostSeconds();
  campaign::CampaignSpec spec =
      campaign::campaignSpecFromDescText(desc::readFile(path), path);
  spec.baseSeed = seed;
  [[maybe_unused]] const campaign::Campaign c = campaign::buildCampaign(spec);
  for (const e2e::ReplicaCase& rc : e2e::replicaCases(spec)) {
    if (rc.newShape) rc.build(e2e::Stage::LaunchOnly, nullptr, spans, counts);
  }
  return hostSeconds() - t0 - spans.runtimeTeardown - spans.engineTeardown;
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

Outcome timedRun(const Workload& w, const std::string& path,
                 std::uint64_t seed, double seconds, const Expected& expected,
                 bool oversubscribed, JsonObject& info) {
  constexpr double kKernelSec = 0.25;     // of the reference kernel per slice
  constexpr double kSliceEverySec = 2.0;  // of passes between two slices
  constexpr int kSetupChildren = 3;       // per slice
  constexpr int kSetupRepeats = 5;        // set-ups per child
  Outcome out;
  const double start = hostSeconds();

  // A slice times the reference kernel, then forks kSetupChildren children
  // that each set up kSetupRepeats times and report their median: the
  // speed of one set-up repeats within a process but differs between
  // processes by up to 1.8x, so a run samples many processes.  Slices run
  // before the first pass, between passes and after the last, so kernel
  // and set-up samples cover the same stretch of host time as the passes.
  std::vector<double> kernel;
  std::vector<double> setup;
  double lastSlice = 0;
  double sliceSec = 0;
  const auto slice = [&] {
    const double t0 = hostSeconds();
    for (const double k : e2e::referenceKernelSeconds(kKernelSec, w.jobs)) {
      kernel.push_back(k);
    }
    for (int c = 0; c < kSetupChildren; ++c) {
      const ChildResult<double> child = inChild<double>([&] {
        std::vector<double> v;
        for (int i = 0; i < kSetupRepeats; ++i) v.push_back(setupOnce(path, seed));
        return median(v);
      });
      if (!child.ok) {
        ++out.failed;
        out.problems.push_back("set-up process ended abnormally (status " +
                               std::to_string(child.status) + ")");
        break;
      }
      setup.push_back(child.value);
    }
    lastSlice = hostSeconds();
    sliceSec = std::max(sliceSec, lastSlice - t0);
  };

  // The whole run, slices included, fits in `seconds` (but always runs one
  // pass).
  slice();
  std::vector<PassSample> passes;
  double longest = 0;
  for (int k = 0;
       k == 0 || hostSeconds() - start + longest + sliceSec <= seconds; ++k) {
    const std::uint64_t s =
        k == 0 ? seed
               : campaign::scenarioSeed(seed, "pass/" + std::to_string(k));
    const double t0 = hostSeconds();
    passes.push_back(forkPass(path, s, w.jobs, expected.digest(w.name, s)));
    longest = std::max(longest, hostSeconds() - t0);
    const PassSummary& r = passes.back().summary;
    std::fprintf(stderr, "cbsim_bench: %s pass %d seed %llu: %.3f s, %.1f MB%s%s\n",
                 w.name, k, static_cast<unsigned long long>(s), r.wallSec,
                 passes.back().rssMb, r.failed > 0 ? ", FAILED: " : "",
                 r.problem);
    if (hostSeconds() - lastSlice >= kSliceEverySec) slice();
  }
  slice();

  // Host speed against the reference host's.  Set-up is scaled by it as
  // is; passes by its elasticity-th power.
  const double kernelSec = median(kernel);
  const double speed = w.referenceKernelSec / kernelSec;
  const double passSpeed = std::pow(speed, w.elasticity);

  std::vector<double> wall;
  std::vector<double> rate;
  std::vector<double> rss;
  std::vector<std::string> passJson;
  for (const PassSample& p : passes) {
    const PassSummary& r = p.summary;
    out.attempted += std::max(r.scenarios, 1);
    out.failed += r.failed;
    if (r.problem[0] != '\0') out.problems.emplace_back(r.problem);
    if (r.failed == 0) {
      wall.push_back(r.wallSec);
      rate.push_back(r.events / r.wallSec);
      rss.push_back(p.rssMb);
    }
    passJson.push_back(JsonObject()
                           .raw("seed", std::to_string(p.seed))
                           .num("wall_s", r.wallSec)
                           .num("events", r.events)
                           .num("peak_rss_mb", p.rssMb)
                           .str("digest", r.digest)
                           .boolean("digest_checked", p.digestChecked)
                           .num("failed", r.failed)
                           .str());
  }
  std::vector<std::string> setupJson;
  for (const double s : setup) setupJson.push_back(desc::formatNumber(s));
  info.raw("passes", jsonArray(passJson))
      .raw("setup_samples_s", jsonArray(setupJson))
      .num("reference_kernel_s", kernelSec)
      .num("reference_kernel_samples", static_cast<double>(kernel.size()))
      .num("host_speed", speed)
      .num("pass_speed", passSpeed);

  if (wall.empty() || setup.empty()) return out;
  // An oversubscribed pool measures the host's time slicing, not cbsim:
  // its wall time (and the rate derived from it) is withheld.
  if (!oversubscribed) {
    out.metrics.push_back({"wall_s", "s", median(wall) * passSpeed});
    out.metrics.push_back({"events_per_s", "1/s", median(rate) / passSpeed});
  }
  out.metrics.push_back({"setup_s", "s", median(setup) * speed});
  out.metrics.push_back({"peak_rss_mb", "MB", median(rss)});
  return out;
}

// ---- traced run -----------------------------------------------------------------

Outcome tracedRun(const Workload& w, const std::string& path, std::uint64_t seed,
                  const Expected& expected, JsonObject& info) {
  Outcome out;
  info.num("reference_kernel_s", median(e2e::referenceKernelSeconds(0.5, w.jobs)));
  const Pass pass = runPass(path, seed, w.jobs);
  const std::string want = expected.digest(w.name, seed);
  out.failed += checkPass(pass, want, out.problems);
  const std::size_t n = pass.report.scenarios.size();

  // Replica worlds, traced (metrics-only, as campaigns ship) and untraced.
  double parseSec = 0;
  campaign::CampaignSpec spec;
  timed(parseSec, [&] {
    spec = campaign::campaignSpecFromDescText(desc::readFile(path), path);
  });
  spec.baseSeed = seed;
  const campaign::Campaign campaign = campaign::buildCampaign(spec);
  const std::vector<e2e::ReplicaCase> cases = e2e::replicaCases(spec);
  if (cases.size() != n) {
    throw std::logic_error("replica scenarios do not follow campaign '" +
                           campaign.name + "'");
  }

  e2e::LayerSpans traced;
  e2e::LayerSpans untraced;
  e2e::WorldCounts counts;
  e2e::WorldCounts untracedCounts;
  campaign::CampaignReport replica;
  replica.campaign = campaign.name;
  replica.description = campaign.description;
  for (const e2e::ReplicaCase& rc : cases) {
    campaign::ScenarioResult r;
    r.name = rc.name;
    r.seed = rc.seed;
    try {
      obs::Tracer tracer;
      tracer.setMetricsOnly(true);
      r.values = rc.build(e2e::Stage::Run, &tracer, traced, counts);
      for (const auto& [name, e] : tracer.metrics().entries()) {
        r.metrics[name] = e.value;
        if (e.kind == obs::Metrics::Kind::Gauge) r.metrics[name + ".max"] = e.max;
      }
    } catch (const std::exception& e) {
      r.values.clear();
      r.metrics.clear();
      r.error = e.what();
    }
    replica.scenarios.push_back(std::move(r));
  }
  if (campaign.derive) replica.derived = campaign.derive(replica.scenarios);
  const std::string replicaDigest = reportDigest(replica);
  if (replicaDigest != pass.digest) {
    ++out.failed;
    out.problems.push_back("traced replica worlds give report digest " +
                           replicaDigest + ", the campaign " + pass.digest);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string why = "untraced replica values differ from the campaign's";
    try {
      if (cases[i].build(e2e::Stage::Run, nullptr, untraced, untracedCounts) ==
          pass.report.scenarios[i].values) {
        continue;
      }
    } catch (const std::exception& e) {
      why = e.what();
    }
    ++out.failed;
    out.problems.push_back(cases[i].name + ": " + why);
  }
  out.attempted = static_cast<long>(3 * std::max<std::size_t>(n, 1));
  info.raw("passes", jsonArray({JsonObject()
                                    .raw("seed", std::to_string(seed))
                                    .num("wall_s", pass.wallSec)
                                    .str("digest", pass.digest)
                                    .boolean("digest_checked", !want.empty())
                                    .str("replica_digest", replicaDigest)
                                    .str()}))
      .num("scenarios", static_cast<double>(n));
  if (out.failed > 0) return out;

  // Isolated probes, on the halo-16k platform and Table II payloads.
  const std::string haloPath = std::string(kDataDir) + "/workloads/halo-16k.json";
  const campaign::CampaignSpec halo =
      campaign::campaignSpecFromDescText(desc::readFile(haloPath), haloPath);
  const e2e::RouteNs route = e2e::routeNs(halo.halo.machine);
  const double sendNs = e2e::sendNs(
      halo.halo.machine,
      static_cast<double>(halo.halo.haloBytes) + halo.halo.protocol.headerBytes);
  std::vector<std::pair<std::string, bool>> keys;
  {
    std::set<std::string> seen;
    for (const campaign::ScenarioResult& s : pass.report.scenarios) {
      for (const auto& [k, value] : s.metrics) {
        // A gauge shows up as "k" plus "k.max"; replay it as one gauge.
        const bool isMax = k.size() > 4 && k.ends_with(".max") &&
                           s.metrics.count(k.substr(0, k.size() - 4)) > 0;
        if (isMax || !seen.insert(k).second) continue;
        keys.emplace_back(k, s.metrics.count(k + ".max") > 0);
      }
    }
  }
  const xpic::XpicConfig tableII = xpic::XpicConfig::tableII();
  const auto interfaceBytes = static_cast<std::size_t>(
      tableII.interfaceDoublesPerCell * tableII.cells() * sizeof(double));
  const e2e::XpicKernelSeconds xk = e2e::xpicKernels();

  double scenarioSum = 0;
  double scenarioMax = 0;
  std::vector<double> scenarioSec;
  double unexpectedMax = 0;
  double metricEntries = 0;
  double cgIterations = 0;
  for (const campaign::ScenarioResult& s : pass.report.scenarios) {
    scenarioSum += s.hostSec;
    scenarioMax = std::max(scenarioMax, s.hostSec);
    scenarioSec.push_back(s.hostSec);
    const auto it = s.metrics.find("pmpi.unexpected.depth.max");
    if (it != s.metrics.end()) unexpectedMax = std::max(unexpectedMax, it->second);
    metricEntries += static_cast<double>(s.metrics.size());
    const auto cg = s.values.find("cg_iterations");
    if (cg != s.values.end()) cgIterations += cg->second;
  }
  const double lookups = counts.routeCacheHits + counts.routeCacheEntries;

  out.metrics = {
      {"desc.parse_s", "s", parseSec},
      {"hw.machine_build_s", "s", traced.machineBuild},
      {"extoll.fabric_build_s", "s", traced.fabricBuild},
      {"pmpi.runtime_build_s", "s", traced.runtimeBuild},
      {"pmpi.launch_s", "s", traced.launch},
      {"sim.run_s", "s", traced.run},
      {"sim.run_untraced_s", "s", untraced.run},
      {"obs.metrics_only_share", "ratio", 1.0 - untraced.run / traced.run},
      {"pmpi.teardown_s", "s", traced.runtimeTeardown},
      {"sim.teardown_s", "s", traced.engineTeardown},
      {"campaign.report_s", "s", pass.reportSec},
      {"campaign.report_bytes", "B", pass.reportBytes},
      {"campaign.scenario_s.p50", "s", median(scenarioSec)},
      {"campaign.scenario_s.max", "s", scenarioMax},
      {"campaign.pool_efficiency", "ratio",
       scenarioSum / (pass.report.jobsUsed * pass.report.hostElapsedSec)},
      {"xpic.calculate_e_s", "s", xk.calculateE},
      {"xpic.particles_move_s", "s", xk.particlesMove},
      {"xpic.migrate_s", "s", xk.migrate},
      {"xpic.particle_moments_s", "s", xk.particleMoments},
      {"xpic.calculate_b_s", "s", xk.calculateB},
      {"sim.event_ns", "ns", e2e::eventNs()},
      {"sim.switch_ns", "ns", e2e::switchNs()},
      {"extoll.route_ns.cold", "ns", route.cold},
      {"extoll.route_ns.warm", "ns", route.warm},
      {"extoll.send_ns", "ns", sendNs},
      {"obs.metrics_add_ns", "ns", e2e::metricsAddNs(keys)},
      {"pmpi.eager_msg_ns", "ns", e2e::pingPongNs(8192, 20000, false)},
      {"pmpi.rndv_msg_ns", "ns", e2e::pingPongNs(interfaceBytes, 20, false)},
      {"pmpi.reliable_msg_ns", "ns", e2e::pingPongNs(8192, 10000, true)},
      {"sim.events", "count", sumMetric(pass.report, "engine.events_processed")},
      {"extoll.messages", "count", sumMetric(pass.report, "fabric.messages")},
      {"extoll.bytes", "B", sumMetric(pass.report, "fabric.bytes")},
      {"extoll.route_cache_hit_ratio", "ratio",
       lookups > 0 ? counts.routeCacheHits / lookups : 0.0},
      {"extoll.retransmits", "count",
       sumMetric(pass.report, "fabric.retransmits")},
      {"pmpi.sends_eager", "count", sumMetric(pass.report, "pmpi.sends.eager")},
      {"pmpi.unexpected_depth_max", "count", unexpectedMax},
      {"obs.metric_entries", "count", metricEntries},
      {"mem.payload_arena_peak_bytes", "B", counts.payloadArenaPeakBytes},
      {"mem.stack_reserve_bytes", "B", counts.stackReserveBytes},
      {"xpic.cg_iterations", "count", cgIterations},
  };
  return out;
}

// ---- command line ---------------------------------------------------------------

/// Why this binary must not be timed, or nullptr.
const char* unfitBuild() {
#ifdef CBSIM_BENCH_SANITIZED
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "unoptimised build";
#endif
  if (std::string_view(CBSIM_BENCH_BUILD_TYPE) != "Release") {
    return "not a Release build (CMAKE_BUILD_TYPE=" CBSIM_BENCH_BUILD_TYPE ")";
  }
  return nullptr;
}

int usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
      "          [--out FILE]\n"
      "\n"
      "  --workload NAME  fig8 | halo-16k | resilience-pool (or the smoke\n"
      "                   shapes fig8-tiny | halo-tiny | resilience-tiny)\n"
      "  --seed N         workload seed (default 1)\n"
      "  --seconds S      timed run: keep starting passes while the run\n"
      "                   fits in S seconds (default 40; at least one pass)\n"
      "  --trace 0|1      0 = end-to-end metrics, 1 = per-layer metrics\n"
      "  --out FILE       also write the host record and the result to FILE\n",
      argv0);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
  std::string outPath;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (i + 1 >= argc) return usage(argv[0], 2);
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage(argv[0], 2);
      }
      trace = v[0] == '1';
    } else if (arg == "--out") {
      outPath = v;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i - 1]);
      return usage(argv[0], 2);
    }
    if (end != nullptr && (end == v || *end != '\0')) {
      std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv[0], v,
                   argv[i - 1]);
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (workload == k.name) w = &k;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                 workload.c_str());
    return usage(argv[0], 2);
  }
  if (const char* why = unfitBuild()) {
    std::fprintf(stderr, "%s: refusing to measure a %s\n", argv[0], why);
    return 2;
  }

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const bool oversubscribed = w->jobs > nproc;
  JsonObject host;
  host.num("nproc", nproc)
      .num("jobs", w->jobs)
      .str("build_type", CBSIM_BENCH_BUILD_TYPE)
      .str("backend", sim::toString(sim::effectiveProcessBackend(
                          sim::defaultProcessBackend())))
      .boolean("oversubscribed", oversubscribed);
  JsonObject info;
  info.str("workload", w->name)
      .str("run", trace ? "traced" : "timed")
      .raw("seed", std::to_string(seed))
      .raw("host", host.str());
  if (w->seedNote[0] != '\0') info.str("seed_note", w->seedNote);

  Outcome out;
  try {
    const std::string path = std::string(kDataDir) + "/workloads/" + w->name + ".json";
    const Expected expected(std::string(kDataDir) + "/expected/digests.json");
    out = trace ? tracedRun(*w, path, seed, expected, info)
                : timedRun(*w, path, seed, seconds, expected, oversubscribed,
                           info);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }

  std::vector<std::string> problems;
  for (const std::string& p : out.problems) problems.push_back(quoted(p));
  info.num("failed_frac", static_cast<double>(out.failed) /
                              static_cast<double>(std::max(out.attempted, 1L)))
      .raw("problems", jsonArray(problems));
  const bool correct = out.failed == 0;
  JsonObject metrics;
  if (correct) {
    for (const Metric& m : out.metrics) {
      metrics.raw(m.name,
                  JsonObject().num("value", m.value).str("unit", m.unit).str());
    }
  }
  const std::string result =
      JsonObject()
          .boolean("correct", correct)
          .num("attempted", static_cast<double>(out.attempted))
          .num("failed", static_cast<double>(out.failed))
          .raw("metrics", metrics.str())
          .str();
  std::printf("%s\n%s\n", info.str().c_str(), result.c_str());
  std::fflush(stdout);
  if (!outPath.empty()) {
    std::ofstream os(outPath, std::ios::binary);
    os << JsonObject().raw("info", info.str()).raw("result", result).str()
       << '\n';
    if (!os.flush()) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], outPath.c_str());
      return 1;
    }
  }
  if (!correct) return 1;
  return oversubscribed ? 3 : 0;
}
