// Campaign-runner throughput: runs the fig8-tiny grid at increasing worker
// counts and reports wall-clock, the sum of per-scenario host times, and
// pool speedup.  On a multi-core host the wall time drops with --jobs while
// the report stays byte-identical — the property the campaign layer exists
// for (ROADMAP: "as fast as the hardware allows").
//
// Honesty rules:
//   * speedup_vs_1 is only reported for worker counts the host can
//     actually run in parallel; a row with jobs > hardware threads gets
//     "oversubscribed": true instead of a speedup claim (time-slicing one
//     core across N workers measures scheduler overhead, not the pool),
//   * --scale N replicates the scenario grid N times (unique names, same
//     per-scenario work), which separates per-world construction cost
//     from run cost: if speedup improves with scale, construction is
//     amortizing; if it degrades, dispatch overhead dominates.
//
// Emits BENCH_campaign.json (override with --out) with scenarios/sec per
// worker count; CI's bench-smoke job uploads it as an artifact.
// The committed BENCH_campaign.json must come from a multi-core host
// (EXPERIMENTS.md); the pool-scaling CI job enforces jobs=2 speedup >= 1.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "sim/process.hpp"

namespace {

/// Peak resident set size of this process in MiB, read after the workload
/// (getrusage reports the high-water mark, in KiB on Linux).
double peakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out FILE] [--scale N] [--jobs N1,N2,...]\n",
               argv0);
  return 2;
}

/// fig8-tiny with every scenario replicated `scale` times under unique
/// names (replica r >= 2 gets an "@r<r>" suffix; seeds derive from names,
/// so replicas do identical work without sharing a seed).
cbsim::campaign::Campaign scaledCampaign(int scale) {
  using cbsim::campaign::Campaign;
  Campaign base = cbsim::campaign::builtinCampaign("fig8-tiny");
  if (scale <= 1) return base;
  Campaign scaled = base;
  for (int r = 2; r <= scale; ++r) {
    for (const cbsim::campaign::Scenario& s : base.scenarios) {
      cbsim::campaign::Scenario copy = s;
      copy.name += "@r" + std::to_string(r);
      scaled.scenarios.push_back(std::move(copy));
    }
  }
  // The fig8 derivations key on the original scenario names only; replicas
  // feed the pool, not the derived table.
  return scaled;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbsim;

  std::string outPath = "BENCH_campaign.json";
  int scale = 1;
  std::vector<int> jobsList = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atoi(argv[++i]);
      if (scale < 1) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobsList.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const long n = std::strtol(p, &end, 10);
        if (end == p || n < 1) return usage(argv[0]);
        jobsList.push_back(static_cast<int>(n));
        p = *end == ',' ? end + 1 : end;
        if (*end != ',' && *end != '\0') return usage(argv[0]);
      }
      if (jobsList.empty() || jobsList.front() != 1) {
        std::fprintf(stderr, "%s: --jobs list must start with 1 (the "
                     "speedup baseline)\n", argv[0]);
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }

  const unsigned hostThreads = std::thread::hardware_concurrency();
  const campaign::Campaign c = scaledCampaign(scale);
  const auto scenarioCount = static_cast<long long>(c.scenarios.size());
  std::printf(
      "=== campaign worker-pool throughput (%zu scenarios, scale %d, "
      "%u hw threads) ===\n\n",
      c.scenarios.size(), scale, hostThreads);
  std::printf("%6s %10s %14s %9s %11s %10s\n", "jobs", "wall [s]",
              "scen.sum [s]", "speedup", "scen/s", "identical");

  std::string reference;
  double wall1 = 0;
  desc::Value runs = desc::Value::array();
  bool allIdentical = true;
  for (const int jobs : jobsList) {
    const campaign::CampaignReport rep =
        campaign::runCampaign(c, campaign::withJobs(jobs));
    const std::string json = campaign::toJson(rep);
    if (jobs == 1) {
      reference = json;
      wall1 = rep.hostElapsedSec;
    }
    const bool identical = json == reference;
    allIdentical = allIdentical && identical;
    // An oversubscribed row time-slices one hardware thread across many
    // workers; publishing wall1/wall as "speedup" there is how this bench
    // once recorded 0.71x "speedups" measured on a 1-thread host.  Refuse.
    const bool oversubscribed = static_cast<unsigned>(jobs) > hostThreads;
    const double scenPerSec =
        static_cast<double>(scenarioCount) / rep.hostElapsedSec;
    char speedupCol[32];
    if (oversubscribed) {
      std::snprintf(speedupCol, sizeof speedupCol, "oversub");
    } else {
      std::snprintf(speedupCol, sizeof speedupCol, "%.2fx",
                    wall1 / rep.hostElapsedSec);
    }
    std::printf("%6d %10.3f %14.3f %9s %11.2f %10s\n", jobs,
                rep.hostElapsedSec, rep.hostScenarioSecSum(), speedupCol,
                scenPerSec, identical ? "yes" : "NO");

    desc::Value row = desc::Value::object();
    row.set("jobs", desc::Value::integer(jobs))
        .set("wall_sec", desc::Value::number(rep.hostElapsedSec))
        .set("scenario_host_sec_sum",
             desc::Value::number(rep.hostScenarioSecSum()))
        .set("scenarios_per_sec", desc::Value::number(scenPerSec));
    if (oversubscribed) {
      row.set("oversubscribed", desc::Value::boolean(true));
    } else {
      row.set("speedup_vs_1", desc::Value::number(wall1 / rep.hostElapsedSec));
    }
    row.set("report_identical_to_jobs1", desc::Value::boolean(identical));
    runs.push(std::move(row));
  }

  desc::Value root = desc::Value::object();
  root.set("bench", desc::Value::string("campaign_pool"))
      .set("campaign", desc::Value::string("fig8-tiny"))
      .set("scenarios", desc::Value::integer(scenarioCount))
      .set("scale", desc::Value::integer(scale))
      .set("host_threads", desc::Value::integer(hostThreads))
      .set("process_backend",
           desc::Value::string(sim::toString(sim::defaultProcessBackend())))
      .set("all_reports_identical", desc::Value::boolean(allIdentical))
      .set("runs", std::move(runs))
      .set("peak_rss_mb", desc::Value::number(peakRssMb()));
  desc::writeFile(outPath, desc::dump(root));
  std::printf("\nwrote %s\n", outPath.c_str());
  if (hostThreads < 2) {
    std::printf("NOTE: 1-thread host — every jobs>1 row is oversubscribed; "
                "run on a multi-core host for pool speedups\n");
  }
  return allIdentical ? 0 : 1;
}
