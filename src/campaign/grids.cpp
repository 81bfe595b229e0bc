// Grid builders for the campaign kinds (Fig. 8 strong-scaling matrix,
// DEEP-ER resiliency matrix, halo scale sweep, Fig. 3 ping-pong).
// Everything here is driven by the parameter structs in builtin.hpp; the
// values of the shipped campaigns live as description text in builtin.cpp,
// and each kind's name and default description in desc.cpp.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "fault/plan.hpp"
#include "hw/desc.hpp"
#include "hw/topology.hpp"
#include "io/beegfs.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "mc/choice.hpp"
#include "obs/metrics.hpp"
#include "pmpi/world.hpp"
#include "scr/failure.hpp"
#include "scr/scr.hpp"
#include "scr/supervisor.hpp"
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

/// Records the world's structural memory footprint into the scenario's
/// metrics registry (the mem.* counter family, which the runner snapshots
/// into the campaign report columns).  Every value is a capacity or a peak
/// derived from simulated state — never a live host-side quantity such as
/// pooled-stack counts, which differ between process backends — so reports
/// stay byte-identical across backends and worker counts
/// (BackendEquivalence.CampaignReportByteIdentical).
void recordMemoryMetrics(ScenarioContext& ctx, const pmpi::World& w) {
  obs::Metrics& m = ctx.tracer.metrics();
  const pmpi::Runtime::MemoryStats mem = w.rt.memoryStats();
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
  m.add("mem.route_cache_bytes",
        static_cast<double>(w.fabric.routeCacheBytes()));
  // Nominal fiber-stack reservation: spawn count x the engine's stack
  // size.  Reported instead of live stack-pool statistics so the thread
  // backend yields the same number.
  m.add("mem.stack_reserve_bytes",
        static_cast<double>(w.engine.spawnedProcessCount()) *
            static_cast<double>(w.engine.fiberStackBytes()));
}

/// Pulls `key` out of the named scenario; nullopt when the scenario failed
/// or the key is absent (derivations then skip the dependent output).
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

/// Throws unless `machine` has a Cluster node for each of `ranks` ranks.
void requireClusterNodes(const char* kind, const hw::MachineConfig& machine,
                         int ranks) {
  const int clusters = machine.countOf(hw::NodeKind::Cluster);
  if (ranks > clusters) {
    throw std::invalid_argument(
        std::string(kind) + ": " + std::to_string(ranks) +
        " ranks need as many Cluster nodes, the machine has " +
        std::to_string(clusters));
  }
}

}  // namespace

Campaign fig8Campaign(const Fig8Params& params) {
  const int clusters = params.machine.countOf(hw::NodeKind::Cluster);
  const int boosters = params.machine.countOf(hw::NodeKind::Booster);
  Campaign c;
  for (const int n : params.nodeCounts) {
    // Every count runs once per mode: on n Cluster nodes, on n Booster
    // nodes and on n of each (C+B).
    if (n > clusters || n > boosters) {
      throw std::invalid_argument(
          "fig8: node count " + std::to_string(n) + " needs " +
          std::to_string(n) + " Cluster and " + std::to_string(n) +
          " Booster nodes, the machine has " + std::to_string(clusters) +
          " and " + std::to_string(boosters));
    }
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
    // Parallel efficiency relative to the first sweep point n0:
    // (n0 * T(n0)) / (n * T(n)), which is T(1) / (n * T(n)) when n0 = 1.
    const int n0 = nodeCounts.front();
    for (const xpic::Mode m : kModes) {
      const auto t0 = valueOf(rs, fig8Name(m, n0), "wall_sec");
      for (const int n : nodeCounts) {
        const auto tn = valueOf(rs, fig8Name(m, n), "wall_sec");
        if (t0 && tn && *tn > 0) {
          d[std::string("efficiency/") + xpic::toString(m) + "/n" +
            std::to_string(n)] = n0 * *t0 / (n * *tn);
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
    const auto fc = valueOf(rs, fig8Name(xpic::Mode::ClusterOnly, n0), "fields_sec");
    const auto fb = valueOf(rs, fig8Name(xpic::Mode::BoosterOnly, n0), "fields_sec");
    const auto pc =
        valueOf(rs, fig8Name(xpic::Mode::ClusterOnly, n0), "particles_sec");
    const auto pb =
        valueOf(rs, fig8Name(xpic::Mode::BoosterOnly, n0), "particles_sec");
    if (fc && fb && *fc > 0) d["ratio/fields_cluster_advantage"] = *fb / *fc;
    if (pc && pb && *pb > 0) d["ratio/particles_booster_advantage"] = *pc / *pb;
    // Inter-module exchange share of the C+B runtime (paper: 3-4%): per
    // step the moments (5 arrays) go one way and the fields (6) the other,
    // each padded to interface_doubles_per_cell as src/xpic/driver.cpp's
    // InterfaceBuffer sends them, at the fabric's ~10 GB/s goodput.
    const auto tcb0 =
        valueOf(rs, fig8Name(xpic::Mode::ClusterBooster, n0), "wall_sec");
    if (tcb0 && *tcb0 > 0) {
      const double perCell =
          std::max(5.0, ifaceDoubles) + std::max(6.0, ifaceDoubles);
      const double xferSec = steps * cells * perCell * 8.0 / 10e9;
      d["ratio/intermodule_exchange_share"] = xferSec / *tcb0;
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
  // The production stack runs with the default chooser attached — the
  // campaign goldens thereby lock in that routing match/retransmit
  // nondeterminism through mc choice points left this path byte-identical.
  mc::DeterministicChooser defaultChooser;
  pmpi::World w(*p.machine, p.protocol, ctx.seed, &ctx.tracer);
  w.rt.setChooser(&defaultChooser);

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
      plan.degradeEndpoint(w.machine.endpointOfNode(1),
                           sim::SimTime::seconds(p.degradeFromSec),
                           sim::SimTime::seconds(p.degradeUntilSec),
                           p.degradeFactor);
    }
    if (p.flapUntilSec > p.flapFromSec) {
      plan.flapEndpoint(w.machine.endpointOfNode(1),
                        sim::SimTime::seconds(p.flapFromSec),
                        sim::SimTime::seconds(p.flapUntilSec));
    }
  }
  w.setFaultPlan(std::move(plan));

  io::BeeGfs fs(w.machine, w.fabric);
  io::LocalStore local(w.machine, w.fabric);
  io::NamStore nam(w.machine, w.fabric);
  scr::Scr ckpt(w.machine, fs, local, nam, scheme.scr);

  bool finished = false;
  double doneAtSec = 0;
  int restartsSeen = 0;
  w.registry.add("sim", [&](pmpi::Env& env) {
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

  // Failures — the plan's node crashes and the MTBF-driven ones below —
  // mark the victim node out of service (repaired after the MTTR) and the
  // supervisor relaunches onto whatever spare/surviving nodes the resource
  // manager still has.
  scr::FailureInjector chaos(w.rt, local, &w.rm,
                             sim::SimTime::seconds(p.repairSec));
  chaos.applyPlan(w.faultPlan());
  sim::Rng rng(ctx.seed + 1);  // decorrelated from the fabric's fault draws
  const sim::SimTime mtbf = sim::SimTime::seconds(mtbfSec);
  scr::Supervisor supervisor(
      w,
      {"sim", p.ranks, p.maxAttempts, sim::SimTime::seconds(p.restartDelaySec),
       p.repairSec > 0},
      [&] { return finished; },
      [&](const pmpi::Job& job, int attempt) {
        // One pending node failure per attempt; a no-op if the attempt
        // completes first (FailureInjector contract).  The first one is
        // pinned to a deterministic mid-run time so every scenario
        // exercises the recovery loop; later ones are exponentially
        // distributed.  A draw near SimTime's range saturates the sum at
        // SimTime::max(), where a draw at t = 0 already lands.
        sim::SimTime at = sim::SimTime::seconds(p.firstFailureAtSec);
        if (attempt != 1 || p.firstFailureAtSec <= 0) {
          const sim::SimTime now = w.engine.now();
          const sim::SimTime draw =
              scr::FailureInjector::sampleFailureTime(rng, mtbf);
          at = draw > sim::SimTime::max() - now ? sim::SimTime::max()
                                                : now + draw;
        }
        const int victim =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(p.ranks)));
        const int victimNode =
            w.rt.proc(job.procIdx[static_cast<std::size_t>(victim)]).nodeId;
        chaos.scheduleNodeFailure(job.id, at, victimNode);
      });
  supervisor.start();
  w.run();
  recordMemoryMetrics(ctx, w);

  const double idealSec = p.steps * p.stepSec;
  const double completionSec =
      finished ? doneAtSec : w.engine.now().toSeconds();
  const extoll::Fabric::Stats& fab = w.fabric.stats();
  Values v;
  v["done"] = finished ? 1.0 : 0.0;
  v["attempts"] = supervisor.attempts();
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
  v["relaunch_stalls"] = supervisor.stalls();
  // Fabric-level fault/recovery totals (satellite: Fabric::Stats counters
  // surfaced through the campaign report).
  v["fabric_messages"] = static_cast<double>(fab.messages);
  v["fabric_drops"] = static_cast<double>(fab.drops);
  v["fabric_corrupts"] = static_cast<double>(fab.corrupts);
  v["fabric_retransmits"] = static_cast<double>(fab.retransmits);
  v["fabric_reroutes"] = static_cast<double>(fab.reroutes);
  v["unreachable_peers"] = w.rt.unreachablePeers();
  return v;
}

// ---- Halo: rank-count sweep on a generated fabric ---------------------------

Values runHaloScenario(const HaloParams& p, int ranks, ScenarioContext& ctx) {
  mc::DeterministicChooser defaultChooser;
  pmpi::World w(p.machine, p.protocol, ctx.seed, &ctx.tracer, p.fabric);
  w.rt.setChooser(&defaultChooser);

  // 2D periodic decomposition, px x py with px the largest divisor <=
  // sqrt(ranks) (prime counts degrade to a 1 x n ring, which still works).
  int px = 1;
  for (int d = 1; static_cast<long long>(d) * d <= ranks; ++d) {
    if (ranks % d == 0) px = d;
  }
  const int py = ranks / px;

  double wallSec = 0.0;
  double commSec = 0.0;
  w.registry.add("halo", [&](pmpi::Env& env) {
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
    // The halos' content is never read: zero sends and discarding receives
    // simulate exactly like zero-filled halo_bytes buffers, without any.
    for (int step = 0; step < p.steps; ++step) {
      std::array<pmpi::Request, 8> reqs;
      for (int d = 0; d < 4; ++d) {
        reqs[static_cast<std::size_t>(d)] = env.irecvDiscard(
            env.world(), nb[static_cast<std::size_t>(d ^ 1)], d, p.haloBytes);
      }
      for (int d = 0; d < 4; ++d) {
        reqs[static_cast<std::size_t>(4 + d)] = env.isendZeros(
            env.world(), nb[static_cast<std::size_t>(d)], d, p.haloBytes);
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

  w.engine.setFiberStackBytes(static_cast<std::size_t>(p.fiberStackKb) * 1024);
  w.rt.launch("halo", hw::NodeKind::Cluster, ranks);
  const sim::RunStats st = w.run();
  recordMemoryMetrics(ctx, w);

  const extoll::Fabric::Stats& fab = w.fabric.stats();
  Values v;
  v["wall_sec"] = wallSec;
  v["comm_sec"] = commSec;
  v["events"] = static_cast<double>(st.eventsProcessed);
  v["fabric_messages"] = static_cast<double>(fab.messages);
  v["fabric_bytes"] = fab.bytes;
  v["route_cache_entries"] = static_cast<double>(w.fabric.routeCacheSize());
  v["route_cache_hits"] = static_cast<double>(w.fabric.routeCacheHits());
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
  for (const int n : params.rankCounts) {
    requireClusterNodes("halo", params.machine, n);
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

hw::MachineConfig resilienceMachine(const ResilienceParams& p) {
  return p.machine ? *p.machine
                   : hw::MachineConfig::deepEr(p.ranks + p.spareNodes, 2);
}

Campaign resilienceCampaign(const ResilienceParams& params) {
  Campaign c;
  // Resolve the platform once per campaign: without this every scenario
  // re-derived the DEEP-ER preset inside its own world construction (the
  // per-world construction cost ROADMAP item 2 calls out).  The config is
  // still copied into each closure, so worlds remain isolated.
  ResilienceParams resolved = params;
  resolved.machine = resilienceMachine(params);
  // The supervisor would wait forever for a repair that frees enough nodes.
  requireClusterNodes("resilience", *resolved.machine, resolved.ranks);
  // A plan aimed at a target the machine lacks is a description error.
  if (resolved.faultPlan) {
    if (std::string err = resolved.faultPlan->validateFor(*resolved.machine);
        !err.empty()) {
      throw std::invalid_argument("resilience: fault_plan: " + err);
    }
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

// ---- Ping-pong: node pair x message size (paper Fig. 3) ---------------------

namespace {

struct NodePair {
  const char* label;
  hw::NodeKind a;  ///< rank 0's node kind
  hw::NodeKind b;  ///< rank 1's node kind
};

constexpr std::array<NodePair, 3> kNodePairs = {{
    {"CN-CN", hw::NodeKind::Cluster, hw::NodeKind::Cluster},
    {"BN-BN", hw::NodeKind::Booster, hw::NodeKind::Booster},
    {"CN-BN", hw::NodeKind::Cluster, hw::NodeKind::Booster},
}};

constexpr std::size_t kMaxPingPongBytes = std::size_t{4} << 20;
/// Timed round trips per world.  Every simulated round trip takes the same
/// time, so the count changes host time only.
constexpr int kRoundTrips = 10;

/// One 2-rank world: rank 0 on the first node of kind `pair.a`, rank 1 on
/// the first other node of kind `pair.b`; a barrier, then kRoundTrips
/// timed round trips.  Returns the one-way latency in microseconds.
double pingPongUs(const PingPongParams& p, const NodePair& pair,
                  std::size_t bytes, ScenarioContext& ctx) {
  pmpi::World w(p.machine, p.protocol, ctx.seed, &ctx.tracer);

  double result = 0;
  w.registry.add("pp", [&](pmpi::Env& env) {
    std::vector<std::byte> buf(bytes);
    const auto span = pmpi::Bytes(buf);
    const auto cspan = pmpi::ConstBytes(buf);
    env.barrier(env.world());
    if (env.rank() == 0) {
      const double t0 = env.wtime();
      for (int i = 0; i < kRoundTrips; ++i) {
        env.send(env.world(), 1, 1, cspan);
        env.recv(env.world(), 1, 2, span);
      }
      result = (env.wtime() - t0) / (2.0 * kRoundTrips) * 1e6;
    } else {
      for (int i = 0; i < kRoundTrips; ++i) {
        env.recv(env.world(), 0, 1, span);
        env.send(env.world(), 0, 2, cspan);
      }
    }
  });
  const std::vector<int> as = w.machine.nodesOfKind(pair.a);
  const std::vector<int> bs = w.machine.nodesOfKind(pair.b);
  pmpi::JobSpec spec;
  spec.appName = "pp";
  spec.nodes = {as.front(), pair.a == pair.b ? bs[1] : bs.front()};
  w.rt.launch(spec);
  w.run();
  return result;
}

}  // namespace

Campaign pingpongCampaign(const PingPongParams& params) {
  if (params.machine.countOf(hw::NodeKind::Cluster) < 2 ||
      params.machine.countOf(hw::NodeKind::Booster) < 2) {
    throw std::invalid_argument(
        "pingpong: the machine needs at least 2 Cluster and 2 Booster nodes");
  }
  Campaign c;
  for (const NodePair& pair : kNodePairs) {
    for (std::size_t bytes = 1; bytes <= kMaxPingPongBytes; bytes *= 2) {
      Scenario s;
      s.name = std::string("pingpong/") + pair.label + "/" +
               std::to_string(bytes) + "B";
      // Large messages cost the most host time: their payload copies.
      s.costHint = static_cast<double>(bytes) / 65536.0;
      s.run = [params, pair, bytes](ScenarioContext& ctx) {
        const double us = pingPongUs(params, pair, bytes, ctx);
        Values v;
        v["one_way_us"] = us;
        v["bandwidth_mbs"] = static_cast<double>(bytes) / us;  // B/us == MB/s
        return v;
      };
      c.scenarios.push_back(std::move(s));
    }
  }
  return c;
}

}  // namespace cbsim::campaign
