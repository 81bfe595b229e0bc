#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace cbsim::campaign {

namespace {

// Monotonic timestamp in seconds.  steady_clock's epoch is arbitrary
// (typically boot time), so the absolute value means nothing — only
// differences do.  Every consumer in this file (and the hostSec /
// hostElapsedSec fields it feeds) is a difference of two of these; none
// may ever be compared against system_clock or rendered as a date.
double monotonicSeconds() {
  using clock = std::chrono::steady_clock;
  static_assert(clock::is_steady,
                "monotonicSeconds() must never observe wall-clock jumps");
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// File-system-safe trace-file stem: '/' (and anything else exotic) to '_'.
std::string sanitizedStem(const std::string& scenario) {
  std::string out = scenario;
  for (char& c : out) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
          c == '.' || c == '+')) {
      c = '_';
    }
  }
  return out;
}

std::string fnv1aHex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Trace file name per scenario (campaign definition order).  Sanitizing
/// is lossy — "a/b" and "a_b" share the stem "a_b" — so scenarios whose
/// stem collides get a short hash of their *original* name appended,
/// deterministically, before any worker starts.  Without this, colliding
/// scenarios silently overwrote each other's trace file.
std::vector<std::string> traceFileNames(const Campaign& campaign) {
  const std::size_t n = campaign.scenarios.size();
  std::vector<std::string> stems(n);
  std::unordered_map<std::string, int> uses;
  for (std::size_t i = 0; i < n; ++i) {
    stems[i] = sanitizedStem(campaign.scenarios[i].name);
    ++uses[stems[i]];
  }
  std::vector<std::string> files(n);
  std::set<std::string> taken;
  for (std::size_t i = 0; i < n; ++i) {
    std::string stem = stems[i];
    if (uses[stem] > 1) {
      stem += "-" + fnv1aHex(campaign.scenarios[i].name).substr(0, 8);
    }
    files[i] = stem + ".trace.json";
    if (!taken.insert(files[i]).second) {
      // A disambiguated name landing on another scenario's file would
      // reintroduce the silent overwrite; names are campaign authoring
      // errors, so fail loudly up front.
      throw std::invalid_argument(
          "campaign '" + campaign.name + "': trace file name '" + files[i] +
          "' collides for scenario '" + campaign.scenarios[i].name + "'");
    }
  }
  return files;
}

/// Runs one scenario in its own world; never throws.  A failure while
/// *writing the trace file* after a completed run keeps the scenario's
/// values/metrics and records a warning instead — the simulation result
/// is valid regardless of what the host filesystem did afterwards.
ScenarioResult runOne(const Scenario& s, std::uint64_t baseSeed,
                      const std::string& traceDir,
                      const std::string& traceFile) {
  ScenarioResult r;
  r.name = s.name;
  r.seed = scenarioSeed(baseSeed, s.name);
  const double t0 = monotonicSeconds();
  try {
    ScenarioContext ctx;
    ctx.seed = r.seed;
    ctx.tracer.setMetricsOnly(traceDir.empty());
    r.values = s.run(ctx);
    for (const auto& [name, e] : ctx.tracer.metrics().entries()) {
      r.metrics[name] = e.value;
      if (e.kind == obs::Metrics::Kind::Gauge) r.metrics[name + ".max"] = e.max;
    }
    if (!traceDir.empty()) {
      try {
        const std::filesystem::path path =
            std::filesystem::path(traceDir) / traceFile;
        std::ofstream os(path, std::ios::binary);
        if (!os) throw std::runtime_error("cannot write " + path.string());
        ctx.tracer.writeJson(os);
        os.flush();
        if (!os) throw std::runtime_error("short write to " + path.string());
      } catch (const std::exception& e) {
        r.traceWarning = e.what();
      } catch (...) {
        r.traceWarning = "unknown exception writing trace";
      }
    }
  } catch (const std::exception& e) {
    r.values.clear();
    r.metrics.clear();
    r.error = e.what();
  } catch (...) {
    r.values.clear();
    r.metrics.clear();
    r.error = "unknown exception";
  }
  r.hostSec = monotonicSeconds() - t0;
  return r;
}

}  // namespace

std::uint64_t scenarioSeed(std::uint64_t baseSeed, std::string_view name) {
  // FNV-1a over the name, folded into the base seed, finalized with the
  // SplitMix64 mixer so adjacent names land far apart.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t z = baseSeed ^ h;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double CampaignReport::hostScenarioSecSum() const {
  return std::accumulate(
      scenarios.begin(), scenarios.end(), 0.0,
      [](double acc, const ScenarioResult& r) { return acc + r.hostSec; });
}

int CampaignReport::failedCount() const {
  return static_cast<int>(std::count_if(
      scenarios.begin(), scenarios.end(),
      [](const ScenarioResult& r) { return !r.error.empty(); }));
}

int CampaignReport::traceWarningCount() const {
  return static_cast<int>(std::count_if(
      scenarios.begin(), scenarios.end(),
      [](const ScenarioResult& r) { return !r.traceWarning.empty(); }));
}

void checkScenarioNames(const Campaign& campaign) {
  std::set<std::string_view> names;
  for (const Scenario& s : campaign.scenarios) {
    if (!names.insert(s.name).second) {
      throw std::invalid_argument("campaign '" + campaign.name +
                                  "': duplicate scenario name '" + s.name +
                                  "'");
    }
  }
}

CampaignReport runCampaign(const Campaign& campaign,
                           const RunnerOptions& opts) {
  checkScenarioNames(campaign);

  CampaignReport rep;
  rep.campaign = campaign.name;
  rep.description = campaign.description;
  const std::size_t n = campaign.scenarios.size();
  rep.scenarios.resize(n);

  int jobs = opts.jobs;
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  jobs = std::clamp(jobs, 1, std::max(1, static_cast<int>(n)));
  rep.jobsUsed = jobs;

  // LPT order: expensive scenarios first, ties in definition order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return campaign.scenarios[a].costHint > campaign.scenarios[b].costHint;
  });

  std::vector<std::string> traceFiles;
  if (!opts.traceDir.empty()) {
    traceFiles = traceFileNames(campaign);  // collision check up front
    std::filesystem::create_directories(opts.traceDir);
  }
  const auto traceFileOf = [&](std::size_t k) -> const std::string& {
    static const std::string kNone;
    return traceFiles.empty() ? kNone : traceFiles[k];
  };

  const double t0 = monotonicSeconds();
  // Workers claim the next scenario of the LPT order from one shared
  // counter and write its result into its own slot of the report.  Each
  // index is run by exactly one worker, so the report is interleaving-free.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const std::size_t k = order[i];
      rep.scenarios[k] = runOne(campaign.scenarios[k], campaign.baseSeed,
                                opts.traceDir, traceFileOf(k));
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  rep.hostElapsedSec = monotonicSeconds() - t0;

  if (campaign.derive) rep.derived = campaign.derive(rep.scenarios);
  return rep;
}

}  // namespace cbsim::campaign
