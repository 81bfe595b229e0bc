// Golden-reference regression suite: pins the key numbers of the paper
// reproduction — Table I (machine peaks), Fig. 3 (fabric latency/bandwidth),
// Fig. 7 (single-node solver ratios), Fig. 8 (strong scaling), the recovery
// loop and ablations A1-A4 and A11 — against snapshots in tests/golden/*.txt.
// Every number comes from a campaign report or a campaign description: a
// builtin (fig3, fig8, resilience-tiny) or an examples/desc/ablation-*.json
// file.  Each ablation's claim is also asserted structurally.
//
// Each golden file holds `key value abs_tolerance` lines.  A drift in the
// hardware models, fabric timing, or xPic kernels beyond the recorded
// tolerance fails here with a side-by-side diff.  After an *intentional*
// model change, refresh the snapshots and review the diff like source:
//
//     ./build/tests/test_golden_figs --update-golden
//
// This binary is registered as two ctest entries (not per-TEST discovery):
// golden_figs runs the Golden suite, whose Fig. 7, Fig. 8, A1 and A11 checks
// share one fig8 campaign run, and golden_ablations the Ablation suite
// (A2-A4), which needs no fig8 run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/desc.hpp"
#include "campaign/runner.hpp"
#include "desc/schema.hpp"
#include "hw/machine.hpp"

#if !defined(CBSIM_GOLDEN_DIR) || !defined(CBSIM_EXAMPLES_DESC_DIR)
#error "build must define CBSIM_GOLDEN_DIR and CBSIM_EXAMPLES_DESC_DIR"
#endif

namespace {

using namespace cbsim;

bool gUpdateGolden = false;

struct Entry {
  std::string key;
  double value;        ///< freshly computed by this run
  double relTol = 0.02;
  double absFloor = 1e-12;  ///< tolerance floor for near-zero goldens

  [[nodiscard]] double tolFor(double reference) const {
    return std::max(relTol * std::fabs(reference), absFloor);
  }
};

std::string goldenPath(const std::string& fig) {
  return std::string(CBSIM_GOLDEN_DIR) + "/" + fig + ".txt";
}

void writeGolden(const std::string& fig, const std::vector<Entry>& entries) {
  const std::string path = goldenPath(fig);
  std::ofstream out(path);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << "# cbsim golden reference: " << fig << "\n"
      << "# format: key value abs_tolerance\n"
      << "# refresh: ./build/tests/test_golden_figs --update-golden\n";
  char buf[128];
  for (const Entry& e : entries) {
    std::snprintf(buf, sizeof(buf), "%s %.17g %.6g\n", e.key.c_str(), e.value,
                  e.tolFor(e.value));
    out << buf;
  }
  std::printf("[golden] wrote %zu entries to %s\n", entries.size(), path.c_str());
}

void checkGolden(const std::string& fig, const std::vector<Entry>& entries) {
  const std::string path = goldenPath(fig);
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — generate it with: test_golden_figs --update-golden";
  std::map<std::string, std::pair<double, double>> golden;  // key -> (value, tol)
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    double value = 0, tol = 0;
    ASSERT_TRUE(ls >> key >> value >> tol) << path << ": bad line: " << line;
    golden[key] = {value, tol};
  }
  for (const Entry& e : entries) {
    const auto it = golden.find(e.key);
    if (it == golden.end()) {
      ADD_FAILURE() << fig << ": key '" << e.key << "' not in " << path
                    << " — refresh with --update-golden";
      continue;
    }
    const auto [ref, tol] = it->second;
    EXPECT_LE(std::fabs(e.value - ref), tol)
        << fig << "/" << e.key << ": golden " << ref << ", got " << e.value
        << " (tolerance " << tol << ")";
    golden.erase(it);
  }
  for (const auto& [key, unused] : golden) {
    (void)unused;
    ADD_FAILURE() << fig << ": stale golden key '" << key
                  << "' no longer produced — refresh with --update-golden";
  }
}

void checkOrUpdate(const std::string& fig, const std::vector<Entry>& entries) {
  if (gUpdateGolden) {
    writeGolden(fig, entries);
  } else {
    checkGolden(fig, entries);
  }
}

/// Runs the description file examples/desc/<file> on `jobs` workers
/// (0: one per hardware thread).
campaign::CampaignReport runExample(const std::string& file, int jobs = 0) {
  const std::string path = std::string(CBSIM_EXAMPLES_DESC_DIR) + "/" + file;
  return campaign::runCampaign(
      campaign::buildCampaign(
          campaign::campaignSpecFromDescText(desc::readFile(path), path)),
      campaign::withJobs(jobs));
}

/// The Fig. 7/8, A1 and A11 numbers all come from one Table-II-sized fig8
/// campaign; run it once and share across tests.
const campaign::CampaignReport& fig8Report() {
  static const campaign::CampaignReport rep =
      campaign::runCampaign(campaign::builtinCampaign("fig8"), campaign::withJobs(0));
  return rep;
}

/// Fig. 3, and the baseline of ablations A2 (8 KiB threshold) and A3 (gen 2).
const campaign::CampaignReport& fig3Report() {
  static const campaign::CampaignReport rep =
      campaign::runCampaign(campaign::builtinCampaign("fig3"), campaign::withJobs(0));
  return rep;
}

/// Table I's machine: the `fig8.machine` object of the fig8 builtin.
hw::MachineConfig tableIMachine() {
  return campaign::campaignSpecFromDescText(
             campaign::builtinCampaignText("fig8"), "builtin:fig8")
      .fig8.machine;
}

double scenarioValue(const campaign::CampaignReport& rep,
                     const std::string& scenario, const std::string& key) {
  for (const auto& s : rep.scenarios) {
    if (s.name == scenario) return s.values.at(key);
  }
  ADD_FAILURE() << "scenario '" << scenario << "' missing from report";
  return NAN;
}

std::string pingpongName(const char* pair, std::size_t bytes) {
  return std::string("pingpong/") + pair + "/" + std::to_string(bytes) + "B";
}

double oneWayUs(const campaign::CampaignReport& rep, const char* pair,
                std::size_t bytes) {
  return scenarioValue(rep, pingpongName(pair, bytes), "one_way_us");
}

// ---- Table I: machine configuration peaks -----------------------------------

TEST(Golden, TableI) {
  sim::Engine engine;
  hw::Machine m(engine, tableIMachine());
  const auto& net = m.config().switches.front().net;
  checkOrUpdate(
      "table1",
      {
          // Config-derived constants: drift here means the Table I model
          // itself changed, so pin them tightly.
          {"cluster_peak_tflops", m.peakTflops(hw::NodeKind::Cluster), 1e-9},
          {"booster_peak_tflops", m.peakTflops(hw::NodeKind::Booster), 1e-9},
          {"cluster_nodes",
           double(m.nodesOfKind(hw::NodeKind::Cluster).size()), 0.0},
          {"booster_nodes",
           double(m.nodesOfKind(hw::NodeKind::Booster).size()), 0.0},
          {"link_goodput_gbs", net.linkBandwidthGBs * net.protocolEfficiency,
           1e-9},
      });
}

// ---- Fig. 3: ping-pong latency and bandwidth --------------------------------

TEST(Golden, Fig3PingPong) {
  const auto& rep = fig3Report();
  ASSERT_EQ(rep.failedCount(), 0);
  const double cncn = oneWayUs(rep, "CN-CN", 1);
  const double bnbn = oneWayUs(rep, "BN-BN", 1);
  const double cnbn = oneWayUs(rep, "CN-BN", 1);
  // The eager->rendezvous knee sits between these two points.
  const double lat8k = oneWayUs(rep, "CN-CN", 8 << 10);
  const double lat16k = oneWayUs(rep, "CN-CN", 16 << 10);
  const double bwPlateau =
      scenarioValue(rep, pingpongName("CN-CN", 4 << 20), "bandwidth_mbs");

  // Paper reference points: 1.0 / 1.8 / ~1.4 us small-message latency and a
  // ~10 GB/s plateau (Table I + Fig. 3); the sim is deterministic, so the
  // golden pins the reproduced values, the EXPECTs pin the physics.
  EXPECT_LT(cncn, bnbn);  // KNL cores add software overhead
  EXPECT_GT(lat16k, 1.5 * lat8k);  // rendezvous knee is visible
  checkOrUpdate("fig3", {
                            {"lat_1B_cncn_us", cncn},
                            {"lat_1B_bnbn_us", bnbn},
                            {"lat_1B_cnbn_us", cnbn},
                            {"lat_8KiB_cncn_us", lat8k},
                            {"lat_16KiB_cncn_us", lat16k},
                            {"bw_4MiB_cncn_MBs", bwPlateau},
                        });
}

// ---- Fig. 7: single-node solver split ---------------------------------------

TEST(Golden, Fig7SolverRatios) {
  const auto& rep = fig8Report();
  ASSERT_EQ(rep.failedCount(), 0);
  std::vector<Entry> entries = {
      // Paper: fields ~6x faster on Cluster, particles ~1.3x faster on
      // Booster, exchange ~3-4% of C+B runtime.
      {"fields_cluster_advantage",
       rep.derived.at("ratio/fields_cluster_advantage")},
      {"particles_booster_advantage",
       rep.derived.at("ratio/particles_booster_advantage")},
      {"intermodule_exchange_share",
       rep.derived.at("ratio/intermodule_exchange_share")},
      {"wall_sec_cluster_n1", scenarioValue(rep, "fig8/Cluster/n1", "wall_sec")},
      {"wall_sec_booster_n1", scenarioValue(rep, "fig8/Booster/n1", "wall_sec")},
      {"wall_sec_cb_n1", scenarioValue(rep, "fig8/C+B/n1", "wall_sec")},
      // Physics invariants of the workload: exact particle census, CG work.
      {"particle_count", scenarioValue(rep, "fig8/C+B/n1", "particle_count"),
       0.0},
      {"cg_iterations_cluster_n1",
       scenarioValue(rep, "fig8/Cluster/n1", "cg_iterations"), 0.0},
      {"net_charge", scenarioValue(rep, "fig8/C+B/n1", "net_charge"), 0.0,
       1e-12},
  };
  // Division-of-labour crossover the paper builds on: C+B beats BOTH
  // single-module runs already at one node per solver.
  EXPECT_GT(rep.derived.at("gain/C+B_vs_Cluster/n1"), 1.0);
  EXPECT_GT(rep.derived.at("gain/C+B_vs_Booster/n1"), 1.0);
  checkOrUpdate("fig7", entries);
}

// ---- Fig. 8: strong scaling -------------------------------------------------

TEST(Golden, Fig8Scaling) {
  const auto& rep = fig8Report();
  ASSERT_EQ(rep.failedCount(), 0);
  std::vector<Entry> entries;
  for (const auto& [key, value] : rep.derived) {
    if (key.rfind("efficiency/", 0) == 0 || key.rfind("gain/", 0) == 0) {
      entries.push_back({key, value});
    }
  }
  ASSERT_FALSE(entries.empty());
  // Structural facts of Fig. 8, independent of the exact snapshot: the C+B
  // gain grows with scale, and at 8 nodes the efficiency ranking is
  // C+B > Cluster > Booster (communication hurts the Booster most).
  EXPECT_GT(rep.derived.at("gain/C+B_vs_Cluster/n8"),
            rep.derived.at("gain/C+B_vs_Cluster/n1"));
  EXPECT_GT(rep.derived.at("efficiency/C+B/n8"),
            rep.derived.at("efficiency/Cluster/n8"));
  EXPECT_GT(rep.derived.at("efficiency/Cluster/n8"),
            rep.derived.at("efficiency/Booster/n8"));
  checkOrUpdate("fig8", entries);
}

// ---- Resilience: degraded fabric + checkpoint-restart recovery --------------

TEST(Golden, ResilienceRecovery) {
  // Pins the closed recovery loop: every scenario of the fault-injection
  // campaign must complete despite a mid-run node kill (attempts >= 2),
  // with the time-to-solution and retransmit traffic frozen in the golden.
  const campaign::CampaignReport rep = campaign::runCampaign(
      campaign::builtinCampaign("resilience-tiny"), campaign::withJobs(0));
  ASSERT_EQ(rep.failedCount(), 0);
  std::vector<Entry> entries;
  double drops = 0, retransmits = 0;
  for (const auto& s : rep.scenarios) {
    // "resilience/L1/mtbf0.3s" -> "L1/mtbf0.3s"
    const std::string base = s.name.substr(s.name.find('/') + 1);
    EXPECT_EQ(s.values.at("done"), 1.0) << s.name << " did not complete";
    EXPECT_GE(s.values.at("attempts"), 2.0)
        << s.name << ": the injected node failure never bit";
    entries.push_back({base + "/attempts", s.values.at("attempts"), 0.0});
    entries.push_back(
        {base + "/scr_restarts", s.values.at("scr_restarts"), 0.0});
    entries.push_back({base + "/completion_sec", s.values.at("completion_sec")});
    entries.push_back(
        {base + "/recovery_tail_sec", s.values.at("recovery_tail_sec")});
    drops += s.values.at("fabric_drops");
    retransmits += s.values.at("fabric_retransmits");
  }
  EXPECT_GT(retransmits, 0.0) << "fault plan never dropped a frame";
  entries.push_back({"total_fabric_drops", drops, 0.0});
  entries.push_back({"total_fabric_retransmits", retransmits, 0.0});
  checkOrUpdate("resilience", entries);
}

// ---- A1: non-blocking overlap in C+B mode -----------------------------------

TEST(Golden, A1OverlapOff) {
  const auto& on = fig8Report();
  const campaign::CampaignReport off = runExample("ablation-a1-overlap-off.json");
  ASSERT_EQ(off.failedCount(), 0);
  std::vector<Entry> entries;
  double prevSaving = 0;
  for (const int n : {1, 2, 4, 8}) {
    const std::string cell = "fig8/C+B/n" + std::to_string(n);
    const double tOff = scenarioValue(off, cell, "wall_sec");
    const double saving = tOff / scenarioValue(on, cell, "wall_sec") - 1;
    // Hiding the auxiliary phase under the exchange saves more as the
    // compute per step shrinks with scale.
    EXPECT_GT(saving, prevSaving) << cell;
    prevSaving = saving;
    entries.push_back({"wall_sec_cb_overlap_off_n" + std::to_string(n), tOff});
    entries.push_back({"overlap_saving_n" + std::to_string(n), saving});
  }
  checkOrUpdate("a1_overlap", entries);
}

// ---- A11: time vs energy to solution ----------------------------------------

TEST(Golden, A11EnergyToSolution) {
  const auto& rep = fig8Report();
  sim::Engine engine;
  const hw::Machine m(engine, tableIMachine());
  const double wattsCn = m.nodeActiveWatts(hw::NodeKind::Cluster);
  const double wattsBn = m.nodeActiveWatts(hw::NodeKind::Booster);
  // Energy of one run at 4 nodes per solver; C+B holds 4 nodes of each
  // module.
  const auto wall = [&](const std::string& mode) {
    return scenarioValue(rep, "fig8/" + mode + "/n4", "wall_sec");
  };
  const double cluster = 4 * wattsCn * wall("Cluster") / 1e3;
  const double booster = 4 * wattsBn * wall("Booster") / 1e3;
  const double cb = 4 * (wattsCn + wattsBn) * wall("C+B") / 1e3;
  // C+B is the fastest run but the most energy per run; Booster-only
  // spends the fewest Joules.
  EXPECT_LT(wall("C+B"), std::min(wall("Cluster"), wall("Booster")));
  EXPECT_LT(booster, cluster);
  EXPECT_LT(cluster, cb);
  checkOrUpdate("a11_energy", {
                                  {"energy_kj_cluster_n4", cluster},
                                  {"energy_kj_booster_n4", booster},
                                  {"energy_kj_cb_n4", cb},
                              });
}

// ---- A2: eager/rendezvous threshold -----------------------------------------

TEST(Ablation, A2EagerThreshold) {
  const auto& thr8k = fig3Report();
  const campaign::CampaignReport thr1k = runExample("ablation-a2-eager-1k.json");
  const campaign::CampaignReport thr64k =
      runExample("ablation-a2-eager-64k.json");
  ASSERT_EQ(thr1k.failedCount() + thr64k.failedCount(), 0);
  std::vector<Entry> entries;
  for (const std::size_t bytes : {512, 2048, 8192, 16384, 65536, 262144}) {
    const std::string size = std::to_string(bytes);
    entries.push_back(
        {"cncn_" + size + "B_us_thr1k", oneWayUs(thr1k, "CN-CN", bytes)});
    entries.push_back(
        {"cncn_" + size + "B_us_thr64k", oneWayUs(thr64k, "CN-CN", bytes)});
  }
  // The rendezvous knee moves with the threshold: a 2 KiB message pays the
  // handshake at a 1 KiB threshold only, a 16 KiB one escapes it at 64 KiB
  // only, and below or above every threshold the runs agree.
  const auto cncn = [](const campaign::CampaignReport& rep, std::size_t b) {
    return oneWayUs(rep, "CN-CN", b);
  };
  EXPECT_GT(cncn(thr1k, 2048), 1.4 * cncn(thr8k, 2048));
  EXPECT_LT(cncn(thr64k, 16384), 0.9 * cncn(thr8k, 16384));
  for (const std::size_t bytes : {512, 262144}) {
    EXPECT_DOUBLE_EQ(cncn(thr1k, bytes), cncn(thr8k, bytes)) << bytes;
    EXPECT_DOUBLE_EQ(cncn(thr64k, bytes), cncn(thr8k, bytes)) << bytes;
  }
  checkOrUpdate("a2_protocol", entries);
}

// ---- A3: gen-1 (bridged KNC) vs gen-2 (uniform KNL) --------------------------

TEST(Ablation, A3Gen1Bridge) {
  const auto& gen2 = fig3Report();
  const campaign::CampaignReport gen1 =
      runExample("ablation-a3-gen1-pingpong.json");
  const campaign::CampaignReport xpic1 = runExample("ablation-a3-gen1-xpic.json");
  const campaign::CampaignReport xpic2 = runExample("ablation-a3-gen2-xpic.json");
  ASSERT_EQ(gen1.failedCount() + xpic1.failedCount() + xpic2.failedCount(), 0);
  const std::string mib = pingpongName("CN-BN", 1 << 20);
  const double lat1 = oneWayUs(gen1, "CN-BN", 1);
  const double lat2 = oneWayUs(gen2, "CN-BN", 1);
  const double bw1 = scenarioValue(gen1, mib, "bandwidth_mbs");
  const double bw2 = scenarioValue(gen2, mib, "bandwidth_mbs");
  // The uniform gen-2 fabric drops the bridge's store-and-forward hop.
  EXPECT_GT(lat1, 2 * lat2);
  EXPECT_GT(bw2, 5 * bw1);
  std::vector<Entry> entries = {
      {"gen1_lat_1B_cnbn_us", lat1},
      {"gen2_lat_1B_cnbn_us", lat2},
      {"gen1_bw_1MiB_cnbn_MBs", bw1},
      {"gen2_bw_1MiB_cnbn_MBs", bw2},
  };
  for (const char* key : {"wall_sec", "particles_sec", "sync_sec"}) {
    entries.push_back({std::string("gen1_cb_n2_") + key,
                       scenarioValue(xpic1, "fig8/C+B/n2", key)});
    entries.push_back({std::string("gen2_cb_n2_") + key,
                       scenarioValue(xpic2, "fig8/C+B/n2", key)});
  }
  // The stand-alone KNL runs the particle solver over twice as fast as KNC.
  EXPECT_GT(scenarioValue(xpic1, "fig8/C+B/n2", "particles_sec"),
            2 * scenarioValue(xpic2, "fig8/C+B/n2", "particles_sec"));
  checkOrUpdate("a3_gen1_bridge", entries);
}

// ---- A4: checkpoint cost per SCR level ---------------------------------------

TEST(Ablation, A4CheckpointLevels) {
  std::vector<Entry> entries;
  for (const int mib : {4, 64}) {
    // One worker: the 64 MiB worlds hold about 1.4 GB each.
    const campaign::CampaignReport rep = runExample(
        "ablation-a4-checkpoint-" + std::to_string(mib) + "mib.json", 1);
    ASSERT_EQ(rep.failedCount(), 0);
    std::map<std::string, double> ms;
    for (const auto& s : rep.scenarios) {
      // With every fault off the job runs once, so its time beyond the
      // ideal compute is its one checkpoint.
      EXPECT_EQ(s.values.at("failures_injected"), 0.0) << s.name;
      EXPECT_EQ(s.values.at("attempts"), 1.0) << s.name;
      // "resilience/<level>/mtbf1e+09s" -> "<level>"
      const std::size_t from = s.name.find('/') + 1;
      const std::string level = s.name.substr(from, s.name.find('/', from) - from);
      ms[level] = s.values.at("recovery_overhead_sec") * 1e3;
      entries.push_back(
          {std::to_string(mib) + "MiB/" + level + "/checkpoint_ms", ms[level]});
    }
    // Cheap node-local levels justify frequent checkpoints; the global
    // file system is for rare, catastrophic failures.
    EXPECT_GT(ms.at("global-fs"), 10 * ms.at("local-nvme")) << mib << " MiB";
  }
  checkOrUpdate("a4_checkpoint", entries);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      gUpdateGolden = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
