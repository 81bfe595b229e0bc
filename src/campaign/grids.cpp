// Grid builders for the built-in campaign families (Fig. 8 strong-scaling
// matrix, DEEP-ER resiliency matrix).  Everything here is driven by the
// parameter structs in builtin.hpp; the values of the shipped campaigns
// live as description text in builtin.cpp.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "extoll/fabric.hpp"
#include "fault/plan.hpp"
#include "hw/desc.hpp"
#include "hw/topology.hpp"
#include "io/beegfs.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "mc/choice.hpp"
#include "mc/scenarios.hpp"
#include "obs/metrics.hpp"
#include "pmpi/env.hpp"
#include "pmpi/runtime.hpp"
#include "rm/resource_manager.hpp"
#include "scr/failure.hpp"
#include "scr/scr.hpp"
#include "sim/rng.hpp"
#include "xpic/driver.hpp"

namespace cbsim::campaign {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

// ---- Fig. 8: mode x nodes-per-solver ----------------------------------------

constexpr std::array<xpic::Mode, 3> kModes = {
    xpic::Mode::ClusterOnly, xpic::Mode::BoosterOnly,
    xpic::Mode::ClusterBooster};

std::string fig8Name(xpic::Mode m, int n) {
  return std::string("fig8/") + xpic::toString(m) + "/n" + std::to_string(n);
}

/// Pulls `key` out of the named scenario; nullopt when the scenario failed
/// or the key is absent (derivations then skip the dependent output).
/// Records the world's structural memory footprint into the scenario's
/// metrics registry (the mem.* counter family, which the runner snapshots
/// into the campaign report columns).  Every value is a capacity or a peak
/// derived from simulated state — never a live host-side quantity such as
/// pooled-stack counts, which differ between process backends — so reports
/// stay byte-identical across backends and worker counts
/// (BackendEquivalence.CampaignReportByteIdentical).
void recordMemoryMetrics(ScenarioContext& ctx, const sim::Engine& engine,
                         const pmpi::Runtime& rt,
                         const extoll::Fabric& fabric) {
  obs::Metrics& m = ctx.tracer.metrics();
  const pmpi::Runtime::MemoryStats mem = rt.memoryStats();
  m.add("mem.proc_slab_bytes", static_cast<double>(mem.procSlabBytes));
  m.add("mem.request_slots", static_cast<double>(mem.requestSlots));
  m.add("mem.request_pool_bytes", static_cast<double>(mem.requestPoolBytes));
  m.add("mem.payload_arena_bytes", static_cast<double>(mem.payloadArenaBytes));
  m.add("mem.payload_arena_peak_bytes",
        static_cast<double>(mem.payloadArenaPeakBytes));
  m.add("mem.match_queue_bytes", static_cast<double>(mem.matchQueueBytes));
  m.add("mem.match_queue_peak_entries",
        static_cast<double>(mem.matchQueuePeakEntries));
  m.add("mem.channel_bytes", static_cast<double>(mem.channelBytes));
  m.add("mem.route_cache_bytes", static_cast<double>(fabric.routeCacheBytes()));
  // Nominal fiber-stack reservation: spawn count x configured stack size
  // (256 KiB when the engine is left at its default).  Reported instead of
  // live stack-pool statistics so the thread backend yields the same number.
  const std::size_t stackBytes = engine.fiberStackBytes() != 0
                                     ? engine.fiberStackBytes()
                                     : std::size_t{256} * 1024;
  m.add("mem.stack_reserve_bytes",
        static_cast<double>(engine.spawnedProcessCount()) *
            static_cast<double>(stackBytes));
}

std::optional<double> valueOf(const std::vector<ScenarioResult>& rs,
                              const std::string& scenario,
                              const std::string& key) {
  for (const ScenarioResult& r : rs) {
    if (r.name != scenario) continue;
    const auto it = r.values.find(key);
    if (it == r.values.end()) return std::nullopt;
    return it->second;
  }
  return std::nullopt;
}

}  // namespace

Campaign fig8Campaign(const Fig8Params& params) {
  Campaign c;
  c.name = "fig8";
  c.description =
      "xPic strong scaling (paper Fig. 8): execution mode x nodes per "
      "solver, one isolated world per cell";
  for (const int n : params.nodeCounts) {
    for (const xpic::Mode m : kModes) {
      Scenario s;
      s.name = fig8Name(m, n);
      // Host cost grows with rank count (more simulated processes and
      // events); C+B runs two jobs of n nodes each.
      s.costHint = static_cast<double>(n) *
                   (m == xpic::Mode::ClusterBooster ? 2.0 : 1.0);
      const xpic::XpicConfig cfg = params.xpic;
      const hw::MachineConfig machine = params.machine;
      s.run = [m, n, cfg, machine](ScenarioContext& ctx) {
        const xpic::Report rep = xpic::runXpic(m, n, cfg, machine, &ctx.tracer);
        Values v;
        v["wall_sec"] = rep.wallSec;
        v["fields_sec"] = rep.fieldsSec;
        v["particles_sec"] = rep.particlesSec;
        v["aux_sec"] = rep.auxSec;
        v["sync_sec"] = rep.syncSec;
        v["field_comm_sec"] = rep.fieldCommSec;
        v["particle_comm_sec"] = rep.particleCommSec;
        v["field_energy"] = rep.fieldEnergy;
        v["kinetic_energy"] = rep.kineticEnergy;
        v["net_charge"] = rep.netCharge;
        v["momentum_x"] = rep.momentumX;
        v["particle_count"] = static_cast<double>(rep.particleCount);
        v["cg_iterations"] = rep.cgIterations;
        return v;
      };
      c.scenarios.push_back(std::move(s));
    }
  }

  const std::vector<int> nodeCounts = params.nodeCounts;
  const double steps = params.xpic.steps;
  const double cells = params.xpic.cells();
  const double ifaceDoubles = params.xpic.interfaceDoublesPerCell;
  c.derive = [nodeCounts, steps, cells,
              ifaceDoubles](const std::vector<ScenarioResult>& rs) {
    Values d;
    for (const xpic::Mode m : kModes) {
      const auto t1 = valueOf(rs, fig8Name(m, nodeCounts.front()), "wall_sec");
      for (const int n : nodeCounts) {
        const auto tn = valueOf(rs, fig8Name(m, n), "wall_sec");
        if (t1 && tn && *tn > 0) {
          d[std::string("efficiency/") + xpic::toString(m) + "/n" +
            std::to_string(n)] = *t1 / (n * *tn);
        }
      }
    }
    for (const int n : nodeCounts) {
      const auto tc = valueOf(rs, fig8Name(xpic::Mode::ClusterOnly, n), "wall_sec");
      const auto tb = valueOf(rs, fig8Name(xpic::Mode::BoosterOnly, n), "wall_sec");
      const auto tcb =
          valueOf(rs, fig8Name(xpic::Mode::ClusterBooster, n), "wall_sec");
      if (tc && tcb && *tcb > 0) {
        d["gain/C+B_vs_Cluster/n" + std::to_string(n)] = *tc / *tcb;
      }
      if (tb && tcb && *tcb > 0) {
        d["gain/C+B_vs_Booster/n" + std::to_string(n)] = *tb / *tcb;
      }
    }
    // Section IV-C single-node solver ratios (the paper's Fig. 7 numbers).
    const int n1 = nodeCounts.front();
    const auto fc = valueOf(rs, fig8Name(xpic::Mode::ClusterOnly, n1), "fields_sec");
    const auto fb = valueOf(rs, fig8Name(xpic::Mode::BoosterOnly, n1), "fields_sec");
    const auto pc =
        valueOf(rs, fig8Name(xpic::Mode::ClusterOnly, n1), "particles_sec");
    const auto pb =
        valueOf(rs, fig8Name(xpic::Mode::BoosterOnly, n1), "particles_sec");
    if (fc && fb && *fc > 0) d["ratio/fields_cluster_advantage"] = *fb / *fc;
    if (pc && pb && *pb > 0) d["ratio/particles_booster_advantage"] = *pc / *pb;
    // Inter-module exchange share of the C+B runtime (paper: 3-4%): two
    // padded interface transfers per step at the fabric's ~10 GB/s goodput.
    const auto tcb1 =
        valueOf(rs, fig8Name(xpic::Mode::ClusterBooster, n1), "wall_sec");
    if (tcb1 && *tcb1 > 0) {
      const double xferSec = 2.0 * steps * cells * ifaceDoubles * 8.0 / 10e9;
      d["ratio/intermodule_exchange_share"] = xferSec / *tcb1;
    }
    return d;
  };
  return c;
}

// ---- Resilience: MTBF x checkpoint-level scheme ------------------------------

std::vector<CheckpointScheme> defaultCheckpointSchemes() {
  scr::ScrConfig l1;
  l1.localEvery = 1;
  l1.buddyEvery = 0;
  l1.globalEvery = 0;
  scr::ScrConfig l12 = l1;
  l12.buddyEvery = 2;
  scr::ScrConfig l123 = l12;
  l123.globalEvery = 8;
  return {{"L1", l1}, {"L1L2", l12}, {"L1L2L3", l123}};
}

pmpi::ProtocolParams resilienceDefaultProtocol() {
  pmpi::ProtocolParams p;
  p.reliable = true;
  return p;
}

namespace {

Values runResilienceScenario(const ResilienceParams& p,
                             const CheckpointScheme& scheme, double mtbfSec,
                             ScenarioContext& ctx) {
  sim::Engine engine(ctx.seed);
  engine.setTracer(&ctx.tracer);
  hw::Machine machine(
      engine, p.machine ? *p.machine
                        : hw::MachineConfig::deepEr(p.ranks + p.spareNodes, 2));
  extoll::Fabric fabric(machine);

  // The fabric runs degraded for the whole scenario: random per-message
  // loss and corruption everywhere, a bandwidth slump plus a brief full
  // outage on node 1's endpoint.  The reliable pmpi transport has to carry
  // the checkpoint/restart traffic through all of it.
  fault::FaultPlan plan;
  if (p.faultPlan) {
    plan = *p.faultPlan;
  } else {
    plan.dropProb = p.dropProb;
    plan.corruptProb = p.corruptProb;
    if (p.degradeUntilSec > p.degradeFromSec && p.degradeFactor < 1.0) {
      plan.degradeEndpoint(machine.endpointOfNode(1),
                           sim::SimTime::seconds(p.degradeFromSec),
                           sim::SimTime::seconds(p.degradeUntilSec),
                           p.degradeFactor);
    }
    if (p.flapUntilSec > p.flapFromSec) {
      plan.flapEndpoint(machine.endpointOfNode(1),
                        sim::SimTime::seconds(p.flapFromSec),
                        sim::SimTime::seconds(p.flapUntilSec));
    }
  }
  if (plan.active()) fabric.setFaultPlan(&plan);

  rm::ResourceManager resources(machine);
  pmpi::AppRegistry registry;
  // The production stack runs with the default chooser attached — the
  // campaign goldens thereby lock in that routing match/retransmit
  // nondeterminism through mc choice points left this path byte-identical.
  mc::DeterministicChooser defaultChooser;
  pmpi::Runtime rt(machine, fabric, resources, registry, p.protocol);
  rt.setChooser(&defaultChooser);
  io::BeeGfs fs(machine, fabric);
  io::LocalStore local(machine, fabric);
  io::NamStore nam(machine, fabric);
  scr::Scr ckpt(machine, fs, local, nam, scheme.scr);

  bool finished = false;
  double doneAtSec = 0;
  int restartsSeen = 0;
  registry.add("sim", [&](pmpi::Env& env) {
    std::vector<std::byte> state(p.stateBytes, std::byte{0});
    int start = 0;
    if (const auto resumed = ckpt.restart(env, env.world(), state)) {
      start = *resumed + 1;
      if (env.rank() == 0) ++restartsSeen;
    }
    for (int step = start; step < p.steps; ++step) {
      state[0] = static_cast<std::byte>(step);  // evolve
      env.ctx().delay(sim::SimTime::seconds(p.stepSec));
      if (ckpt.needCheckpoint(step)) {
        ckpt.checkpoint(env, env.world(), step, pmpi::ConstBytes(state));
      }
    }
    if (env.rank() == 0) finished = true;
    doneAtSec = std::max(doneAtSec, env.wtime());
  });

  // Event-driven supervisor: failures mark the victim node out of service
  // (repaired after the MTTR) and the job's drain triggers a relaunch onto
  // whatever spare/surviving nodes the resource manager still has.  All of
  // it runs inside a single engine.run() so repairs, relaunches and the
  // fault plan interleave on the one simulated clock.
  scr::FailureInjector chaos(rt, local, &resources,
                             sim::SimTime::seconds(p.repairSec));
  sim::Rng rng(ctx.seed + 1);  // decorrelated from the fabric's fault draws
  const sim::SimTime mtbf = sim::SimTime::seconds(mtbfSec);
  int attempts = 0;
  int relaunchStalls = 0;
  bool relaunchQueued = false;
  std::function<void()> launchAttempt;
  const auto queueRelaunch = [&] {
    if (relaunchQueued || finished) return;
    relaunchQueued = true;
    engine.schedule(sim::SimTime::seconds(p.restartDelaySec), [&] {
      relaunchQueued = false;
      launchAttempt();
    });
  };
  launchAttempt = [&] {
    if (finished || attempts >= p.maxAttempts) return;
    if (resources.freeCount(hw::NodeKind::Cluster) < p.ranks) {
      // Pool short: failed nodes outnumber the spares.  With repair
      // enabled the supervisor retries until a node returns; without it
      // the run is permanently stuck — give up instead of spinning.
      if (p.repairSec > 0) {
        ++relaunchStalls;
        queueRelaunch();
      }
      return;
    }
    ++attempts;
    const auto& job = rt.launch("sim", hw::NodeKind::Cluster, p.ranks);
    // One pending node failure per attempt; a no-op if the attempt
    // completes first (FailureInjector contract).  The first one is pinned
    // to a deterministic mid-run time so every scenario exercises the
    // recovery loop; later ones are exponentially distributed.
    const sim::SimTime at =
        attempts == 1 && p.firstFailureAtSec > 0
            ? sim::SimTime::seconds(p.firstFailureAtSec)
            : engine.now() + scr::FailureInjector::sampleFailureTime(rng, mtbf);
    const int victim =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(p.ranks)));
    const int victimNode =
        rt.proc(job.procIdx[static_cast<std::size_t>(victim)]).nodeId;
    chaos.scheduleNodeFailure(job.id, at, victimNode);
  };
  rt.setJobDrainHook([&](int) { queueRelaunch(); });
  launchAttempt();
  const sim::RunStats st = engine.run();
  rt.setJobDrainHook({});
  if (!st.blockedProcesses.empty()) {
    throw std::runtime_error("resilience scenario deadlocked");
  }
  recordMemoryMetrics(ctx, engine, rt, fabric);

  const double idealSec = p.steps * p.stepSec;
  const double completionSec = finished ? doneAtSec : engine.now().toSeconds();
  const extoll::Fabric::Stats& fab = fabric.stats();
  Values v;
  v["done"] = finished ? 1.0 : 0.0;
  v["attempts"] = attempts;
  v["failures_injected"] = chaos.injected();
  v["completion_sec"] = completionSec;
  v["ideal_sec"] = idealSec;
  v["overhead_frac"] =
      finished && idealSec > 0 ? doneAtSec / idealSec - 1.0 : -1.0;
  v["restarts_used"] = restartsSeen;
  v["checkpoints_written"] = static_cast<double>(ckpt.stats().checkpoints);
  v["scr_restarts"] = static_cast<double>(ckpt.stats().restarts);
  v["checkpoint_bytes"] = ckpt.stats().bytesWritten;
  // Recovery accounting: how long after the last node failure the run
  // still needed to reach completion, and the absolute time-to-solution
  // penalty versus the failure-free ideal.
  v["recovery_tail_sec"] =
      finished && chaos.injected() > 0
          ? completionSec - chaos.lastFailureAt().toSeconds()
          : 0.0;
  v["recovery_overhead_sec"] = finished ? completionSec - idealSec : -1.0;
  v["relaunch_stalls"] = relaunchStalls;
  // Fabric-level fault/recovery totals (satellite: Fabric::Stats counters
  // surfaced through the campaign report).
  v["fabric_messages"] = static_cast<double>(fab.messages);
  v["fabric_drops"] = static_cast<double>(fab.drops);
  v["fabric_corrupts"] = static_cast<double>(fab.corrupts);
  v["fabric_retransmits"] = static_cast<double>(fab.retransmits);
  v["fabric_reroutes"] = static_cast<double>(fab.reroutes);
  v["unreachable_peers"] = rt.unreachablePeers();
  return v;
}

// ---- Halo: rank-count sweep on a generated fabric ---------------------------

Values runHaloScenario(const HaloParams& p, int ranks, ScenarioContext& ctx) {
  sim::Engine engine(ctx.seed);
  engine.setTracer(&ctx.tracer);
  if (p.fiberStackKb > 0) {
    engine.setFiberStackBytes(static_cast<std::size_t>(p.fiberStackKb) * 1024);
  }
  hw::Machine machine(engine, p.machine);
  extoll::Fabric fabric(machine, p.fabric);
  rm::ResourceManager resources(machine);
  pmpi::AppRegistry registry;
  mc::DeterministicChooser defaultChooser;
  pmpi::Runtime rt(machine, fabric, resources, registry, p.protocol);
  rt.setChooser(&defaultChooser);

  const int avail =
      static_cast<int>(machine.nodesOfKind(hw::NodeKind::Cluster).size());
  if (ranks > avail) {
    throw std::runtime_error("halo: " + std::to_string(ranks) +
                             " ranks need as many Cluster nodes, machine has " +
                             std::to_string(avail));
  }

  // 2D periodic decomposition, px x py with px the largest divisor <=
  // sqrt(ranks) (prime counts degrade to a 1 x n ring, which still works).
  int px = 1;
  for (int d = 1; static_cast<long long>(d) * d <= ranks; ++d) {
    if (ranks % d == 0) px = d;
  }
  const int py = ranks / px;

  double wallSec = 0.0;
  double commSec = 0.0;
  registry.add("halo", [&](pmpi::Env& env) {
    const int r = env.rank();
    const int x = r % px;
    const int y = r / px;
    const auto at = [&](int xx, int yy) {
      return ((yy + py) % py) * px + ((xx + px) % px);
    };
    // Direction d of a send is also its tag; the matching receive comes
    // from the opposite neighbour (d ^ 1), so matching stays unambiguous
    // even when the grid degenerates and neighbours coincide (or are self).
    const std::array<int, 4> nb = {at(x - 1, y), at(x + 1, y), at(x, y - 1),
                                   at(x, y + 1)};
    std::vector<std::byte> sendBuf(p.haloBytes, std::byte{0});
    std::array<std::vector<std::byte>, 4> recvBuf;
    for (auto& b : recvBuf) b.assign(p.haloBytes, std::byte{0});
    for (int step = 0; step < p.steps; ++step) {
      std::array<pmpi::Request, 8> reqs;
      for (int d = 0; d < 4; ++d) {
        reqs[static_cast<std::size_t>(d)] =
            env.irecv(env.world(), nb[static_cast<std::size_t>(d ^ 1)], d,
                      pmpi::Bytes(recvBuf[static_cast<std::size_t>(d)]));
      }
      for (int d = 0; d < 4; ++d) {
        reqs[static_cast<std::size_t>(4 + d)] =
            env.isend(env.world(), nb[static_cast<std::size_t>(d)], d,
                      pmpi::ConstBytes(sendBuf));
      }
      env.computeDelay(sim::SimTime::seconds(p.computeSec));
      env.waitAll(reqs);
      if (p.allreduceEvery > 0 && (step + 1) % p.allreduceEvery == 0) {
        env.allreduceValue(env.world(), static_cast<double>(step),
                           pmpi::Op::Max);
      }
    }
    wallSec = std::max(wallSec, env.wtime());
    commSec += env.commSec();
  });

  rt.launch("halo", hw::NodeKind::Cluster, ranks);
  const sim::RunStats st = engine.run();
  if (st.deadlocked()) throw std::runtime_error("halo scenario deadlocked");
  recordMemoryMetrics(ctx, engine, rt, fabric);

  const extoll::Fabric::Stats& fab = fabric.stats();
  Values v;
  v["wall_sec"] = wallSec;
  v["comm_sec"] = commSec;
  v["events"] = static_cast<double>(st.eventsProcessed);
  v["fabric_messages"] = static_cast<double>(fab.messages);
  v["fabric_bytes"] = fab.bytes;
  v["route_cache_entries"] = static_cast<double>(fabric.routeCacheSize());
  v["route_cache_hits"] = static_cast<double>(fabric.routeCacheHits());
  return v;
}

}  // namespace

hw::MachineConfig defaultHaloMachine() {
  hw::TopologySpec t = hw::TopologySpec::fatTreeSpec(8, 4, 8);
  t.cpu = hw::cpuPreset("xeon-haswell");
  return t.materialize("halo-fat-tree");
}

Campaign haloCampaign(const HaloParams& params) {
  Campaign c;
  c.name = "halo";
  c.description =
      "2D halo-exchange stencil swept over rank counts on a generated "
      "fabric; routing mode and congestion model are parameters";
  for (const int n : params.rankCounts) {
    Scenario s;
    s.name = "halo/r" + std::to_string(n);
    s.costHint = static_cast<double>(n);
    const HaloParams p = params;
    s.run = [p, n](ScenarioContext& ctx) { return runHaloScenario(p, n, ctx); };
    c.scenarios.push_back(std::move(s));
  }
  const std::vector<int> rankCounts = params.rankCounts;
  c.derive = [rankCounts](const std::vector<ScenarioResult>& rs) {
    Values d;
    // Weak-scaling view: per-step halo volume is fixed per rank, so the
    // simulated wall time ratio to the smallest sweep point is the
    // fabric-contention signal.
    const auto base =
        valueOf(rs, "halo/r" + std::to_string(rankCounts.front()), "wall_sec");
    for (const int n : rankCounts) {
      const auto wn = valueOf(rs, "halo/r" + std::to_string(n), "wall_sec");
      if (base && wn && *base > 0) {
        d["slowdown/r" + std::to_string(n)] = *wn / *base;
      }
    }
    return d;
  };
  return c;
}

Campaign resilienceCampaign(const ResilienceParams& params) {
  Campaign c;
  c.name = "resilience";
  c.description =
      "DEEP-ER-style resiliency matrix: node MTBF x SCR checkpoint-level "
      "scheme under exponential failure injection";
  // Resolve the platform once per campaign: without this every scenario
  // re-derived the DEEP-ER preset inside its own world construction (the
  // per-world construction cost ROADMAP item 2 calls out).  The config is
  // still copied into each closure, so worlds remain isolated.
  ResilienceParams resolved = params;
  if (!resolved.machine) {
    resolved.machine =
        hw::MachineConfig::deepEr(resolved.ranks + resolved.spareNodes, 2);
  }
  for (const CheckpointScheme& scheme : resolved.schemes) {
    for (const double mtbf : resolved.mtbfSec) {
      Scenario s;
      s.name = std::string("resilience/") + scheme.label + "/mtbf" +
               fmt("%gs", mtbf);
      // Shorter MTBF -> more failures, retries and restart traffic.
      s.costHint = 1.0 / mtbf;
      const ResilienceParams p = resolved;
      const CheckpointScheme sch = scheme;
      s.run = [p, sch, mtbf](ScenarioContext& ctx) {
        return runResilienceScenario(p, sch, mtbf, ctx);
      };
      c.scenarios.push_back(std::move(s));
    }
  }
  return c;
}

chaos::ChaosSpec defaultChaosSpec() {
  chaos::ChaosSpec spec;
  spec.name = "chaos";
  spec.seed = 7;
  spec.trials = 100;
  spec.scenario.name = "transport-under-chaos";
  spec.scenario.family = "message-race";
  spec.scenario.drainSec = 2.0;
  spec.scenario.senders = 3;
  spec.scenario.messages = 4;
  spec.scenario.recvWorkUs = 5;
  spec.profile.horizonSec = 0.01;
  spec.profile.endpointRateHz = 150;
  spec.profile.trunkRateHz = 50;
  spec.profile.switchRateHz = 30;
  spec.profile.stormRateHz = 30;
  spec.profile.windowMinSec = 0.0005;
  spec.profile.windowMaxSec = 0.003;
  spec.profile.downWeight = 0.6;
  spec.profile.stormSpanSec = 0.002;
  spec.profile.dropProbMax = 0.05;
  spec.profile.corruptProbMax = 0.02;
  return spec;
}

Campaign chaosCampaign(const ChaosParams& params) {
  Campaign c;
  c.name = "chaos";
  c.description =
      "fault-fuzzing sweep: invariant-checked scenario under one "
      "seed-deterministic chaos schedule per trial";
  // One spec/world resolution shared by every trial closure; the trial
  // worlds themselves are still built fresh inside runTrial.
  const auto spec = std::make_shared<const chaos::ChaosSpec>(params.spec);
  const auto world = std::make_shared<const hw::MachineConfig>(
      mc::scenarioWorld(spec->scenario));
  for (int i = 0; i < spec->trials; ++i) {
    Scenario s;
    char name[32];
    std::snprintf(name, sizeof(name), "chaos/trial-%03d", i);
    s.name = name;
    s.run = [spec, world, i](ScenarioContext&) {
      // The trial seed comes from the spec, not ctx.seed: the contract is
      // that `cbsim chaos --trials 1 --seed <trial_seed>` (or fuzz())
      // rebuilds exactly this schedule and shrinks it.
      const std::uint64_t seed = chaos::trialSeed(*spec, i);
      const chaos::Schedule sched =
          chaos::generateSchedule(spec->profile, *world, seed);
      const std::string violation = chaos::runTrial(spec->scenario, sched);
      Values v;
      v["violation"] = violation.empty() ? 0.0 : 1.0;
      v["fault_events"] = static_cast<double>(sched.events.size());
      v["drop_prob"] = sched.dropProb;
      v["corrupt_prob"] = sched.corruptProb;
      v["trial_seed"] = static_cast<double>(seed);
      return v;
    };
    c.scenarios.push_back(std::move(s));
  }
  c.derive = [](const std::vector<ScenarioResult>& rs) {
    Values d;
    double violations = 0;
    double events = 0;
    for (const ScenarioResult& r : rs) {
      const auto v = r.values.find("violation");
      if (v != r.values.end() && v->second > 0) ++violations;
      const auto e = r.values.find("fault_events");
      if (e != r.values.end()) events += e->second;
    }
    d["violations"] = violations;
    d["fault_events_total"] = events;
    return d;
  };
  return c;
}

}  // namespace cbsim::campaign
