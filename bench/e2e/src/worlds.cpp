#include "worlds.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "campaign/builtin.hpp"
#include "extoll/fabric.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "io/beegfs.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "mc/choice.hpp"
#include "obs/metrics.hpp"
#include "pmpi/env.hpp"
#include "pmpi/runtime.hpp"
#include "rm/resource_manager.hpp"
#include "scr/failure.hpp"
#include "scr/scr.hpp"
#include "sim/rng.hpp"
#include "xpic/driver.hpp"

#include "measure.hpp"

namespace cbsim::e2e {

namespace {

using campaign::Values;

/// The layer stack every campaign world is built from, constructed and
/// destroyed one layer at a time inside spans.  Construction order matches
/// the campaign scenarios', so the replica draws the same random streams.
struct World {
  std::optional<sim::Engine> engine;
  std::optional<hw::Machine> machine;
  std::optional<extoll::Fabric> fabric;
  std::optional<rm::ResourceManager> resources;
  pmpi::AppRegistry registry;
  mc::DeterministicChooser chooser;
  std::optional<pmpi::Runtime> runtime;
  LayerSpans& spans;

  /// `seed` empty keeps the engine's default seed (what runXpic uses);
  /// `withChooser` mirrors the campaign grids, which attach the default
  /// chooser where runXpic attaches none.
  World(std::optional<std::uint64_t> seed, const hw::MachineConfig& machineCfg,
        const extoll::FabricOptions& fabricOpts,
        const pmpi::ProtocolParams& protocol, bool withChooser,
        obs::Tracer* tracer, std::size_t fiberStackBytes, LayerSpans& s)
      : spans(s) {
    if (seed) {
      engine.emplace(*seed);
    } else {
      engine.emplace();
    }
    engine->setTracer(tracer);
    if (fiberStackBytes > 0) engine->setFiberStackBytes(fiberStackBytes);
    timed(spans.machineBuild, [&] { machine.emplace(*engine, machineCfg); });
    timed(spans.fabricBuild, [&] { fabric.emplace(*machine, fabricOpts); });
    timed(spans.runtimeBuild, [&] {
      resources.emplace(*machine);
      runtime.emplace(*machine, *fabric, *resources, registry, protocol);
      if (withChooser) runtime->setChooser(&chooser);
    });
  }

  sim::RunStats run() {
    sim::RunStats st;
    timed(spans.run, [&] { st = engine->run(); });
    return st;
  }

  void count(WorldCounts& c) const {
    c.routeCacheHits += static_cast<double>(fabric->routeCacheHits());
    c.routeCacheEntries += static_cast<double>(fabric->routeCacheSize());
    c.payloadArenaPeakBytes +=
        static_cast<double>(runtime->memoryStats().payloadArenaPeakBytes);
    c.stackReserveBytes += stackReserveBytes();
  }

  /// Spawn count x configured stack size, as campaign reports define it.
  [[nodiscard]] double stackReserveBytes() const {
    const std::size_t stack = engine->fiberStackBytes() != 0
                                  ? engine->fiberStackBytes()
                                  : std::size_t{256} * 1024;
    return static_cast<double>(engine->spawnedProcessCount()) *
           static_cast<double>(stack);
  }

  /// The mem.* metrics the halo and resilience scenarios record.
  void recordMemoryMetrics(obs::Metrics& m) const {
    const pmpi::Runtime::MemoryStats mem = runtime->memoryStats();
    m.add("mem.proc_slab_bytes", static_cast<double>(mem.procSlabBytes));
    m.add("mem.request_slots", static_cast<double>(mem.requestSlots));
    m.add("mem.request_pool_bytes", static_cast<double>(mem.requestPoolBytes));
    m.add("mem.payload_arena_bytes",
          static_cast<double>(mem.payloadArenaBytes));
    m.add("mem.payload_arena_peak_bytes",
          static_cast<double>(mem.payloadArenaPeakBytes));
    m.add("mem.match_queue_bytes", static_cast<double>(mem.matchQueueBytes));
    m.add("mem.match_queue_peak_entries",
          static_cast<double>(mem.matchQueuePeakEntries));
    m.add("mem.channel_bytes", static_cast<double>(mem.channelBytes));
    m.add("mem.route_cache_bytes",
          static_cast<double>(fabric->routeCacheBytes()));
    m.add("mem.stack_reserve_bytes", stackReserveBytes());
  }

  void teardown() {
    timed(spans.runtimeTeardown, [&] { runtime.reset(); });
    timed(spans.engineTeardown, [&] {
      resources.reset();
      fabric.reset();
      machine.reset();
      engine.reset();
    });
  }
};

// ---- fig8: one xPic world per (mode, nodes per solver) ----------------------

constexpr std::array<xpic::Mode, 3> kModes = {
    xpic::Mode::ClusterOnly, xpic::Mode::BoosterOnly,
    xpic::Mode::ClusterBooster};

Values fig8World(const campaign::Fig8Params& p, xpic::Mode mode, int n,
                 Stage stage, obs::Tracer* tracer, LayerSpans& spans,
                 WorldCounts& counts) {
  World w(std::nullopt, p.machine, {}, {}, false, tracer, 0, spans);
  xpic::Report rep;
  rep.mode = mode;
  rep.nodesPerSolver = n;
  xpic::registerXpicApps(w.registry, p.xpic, n, &rep);
  timed(spans.launch, [&] {
    switch (mode) {
      case xpic::Mode::ClusterOnly:
        w.runtime->launch(xpic::kMonolithicApp, hw::NodeKind::Cluster, n);
        break;
      case xpic::Mode::BoosterOnly:
        w.runtime->launch(xpic::kMonolithicApp, hw::NodeKind::Booster, n);
        break;
      case xpic::Mode::ClusterBooster:
        w.runtime->launch(xpic::kBoosterApp, hw::NodeKind::Booster, n);
        break;
    }
  });
  if (stage == Stage::LaunchOnly) {
    w.teardown();
    return {};
  }
  const sim::RunStats st = w.run();
  if (st.deadlocked()) {
    throw std::runtime_error("xpic run deadlocked; first blocked process: " +
                             st.blockedProcesses.front());
  }
  rep.wallSec = w.engine->now().toSeconds();
  w.count(counts);
  w.teardown();

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
}

// ---- halo: 2D periodic halo exchange on a generated fabric ------------------

Values haloWorld(const campaign::HaloParams& p, int ranks, std::uint64_t seed,
                 Stage stage, obs::Tracer* tracer, LayerSpans& spans,
                 WorldCounts& counts) {
  World w(seed, p.machine, p.fabric, p.protocol, true, tracer,
          static_cast<std::size_t>(std::max(p.fiberStackKb, 0)) * 1024, spans);
  const int avail =
      static_cast<int>(w.machine->nodesOfKind(hw::NodeKind::Cluster).size());
  if (ranks > avail) {
    throw std::runtime_error("halo: " + std::to_string(ranks) +
                             " ranks need as many Cluster nodes, machine has " +
                             std::to_string(avail));
  }
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
  timed(spans.launch,
        [&] { w.runtime->launch("halo", hw::NodeKind::Cluster, ranks); });
  if (stage == Stage::LaunchOnly) {
    w.teardown();
    return {};
  }
  const sim::RunStats st = w.run();
  if (st.deadlocked()) throw std::runtime_error("halo scenario deadlocked");
  if (tracer != nullptr) w.recordMemoryMetrics(tracer->metrics());
  w.count(counts);

  const extoll::Fabric::Stats& fab = w.fabric->stats();
  Values v;
  v["wall_sec"] = wallSec;
  v["comm_sec"] = commSec;
  v["events"] = static_cast<double>(st.eventsProcessed);
  v["fabric_messages"] = static_cast<double>(fab.messages);
  v["fabric_bytes"] = fab.bytes;
  v["route_cache_entries"] = static_cast<double>(w.fabric->routeCacheSize());
  v["route_cache_hits"] = static_cast<double>(w.fabric->routeCacheHits());
  w.teardown();
  return v;
}

// ---- resilience: checkpointing job under node failures on a lossy fabric ----

Values resilienceWorld(const campaign::ResilienceParams& p,
                       const campaign::CheckpointScheme& scheme,
                       double mtbfSec, std::uint64_t seed, Stage stage,
                       obs::Tracer* tracer, LayerSpans& spans,
                       WorldCounts& counts) {
  World w(seed, *p.machine, {}, p.protocol, true, tracer, 0, spans);
  hw::Machine& machine = *w.machine;
  sim::Engine& engine = *w.engine;
  pmpi::Runtime& rt = *w.runtime;

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
  if (plan.active()) w.fabric->setFaultPlan(&plan);

  io::BeeGfs fs(machine, *w.fabric);
  io::LocalStore local(machine, *w.fabric);
  io::NamStore nam(machine, *w.fabric);
  scr::Scr ckpt(machine, fs, local, nam, scheme.scr);

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
      state[0] = static_cast<std::byte>(step);
      env.ctx().delay(sim::SimTime::seconds(p.stepSec));
      if (ckpt.needCheckpoint(step)) {
        ckpt.checkpoint(env, env.world(), step, pmpi::ConstBytes(state));
      }
    }
    if (env.rank() == 0) finished = true;
    doneAtSec = std::max(doneAtSec, env.wtime());
  });

  scr::FailureInjector chaos(rt, local, &*w.resources,
                             sim::SimTime::seconds(p.repairSec));
  sim::Rng rng(seed + 1);
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
    if (w.resources->freeCount(hw::NodeKind::Cluster) < p.ranks) {
      if (p.repairSec > 0) {
        ++relaunchStalls;
        queueRelaunch();
      }
      return;
    }
    ++attempts;
    const auto& job = rt.launch("sim", hw::NodeKind::Cluster, p.ranks);
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
  timed(spans.launch, [&] { launchAttempt(); });
  if (stage == Stage::LaunchOnly) {
    rt.setJobDrainHook({});
    w.teardown();
    return {};
  }
  const sim::RunStats st = w.run();
  rt.setJobDrainHook({});
  if (!st.blockedProcesses.empty()) {
    throw std::runtime_error("resilience scenario deadlocked");
  }
  if (tracer != nullptr) w.recordMemoryMetrics(tracer->metrics());
  w.count(counts);

  const double idealSec = p.steps * p.stepSec;
  const double completionSec = finished ? doneAtSec : engine.now().toSeconds();
  const extoll::Fabric::Stats& fab = w.fabric->stats();
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
  v["recovery_tail_sec"] =
      finished && chaos.injected() > 0
          ? completionSec - chaos.lastFailureAt().toSeconds()
          : 0.0;
  v["recovery_overhead_sec"] = finished ? completionSec - idealSec : -1.0;
  v["relaunch_stalls"] = relaunchStalls;
  v["fabric_messages"] = static_cast<double>(fab.messages);
  v["fabric_drops"] = static_cast<double>(fab.drops);
  v["fabric_corrupts"] = static_cast<double>(fab.corrupts);
  v["fabric_retransmits"] = static_cast<double>(fab.retransmits);
  v["fabric_reroutes"] = static_cast<double>(fab.reroutes);
  v["unreachable_peers"] = rt.unreachablePeers();
  w.teardown();
  return v;
}

std::string mtbfLabel(double mtbf) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%gs", mtbf);
  return buf;
}

}  // namespace

std::vector<ReplicaCase> replicaCases(const campaign::CampaignSpec& spec) {
  std::vector<ReplicaCase> cases;
  const auto add = [&](std::string name, bool newShape, auto build) {
    ReplicaCase c;
    c.seed = campaign::scenarioSeed(spec.baseSeed, name);
    c.name = std::move(name);
    c.newShape = newShape;
    c.build = [build, seed = c.seed](Stage stage, obs::Tracer* tracer,
                                     LayerSpans& spans, WorldCounts& counts) {
      return build(seed, stage, tracer, spans, counts);
    };
    cases.push_back(std::move(c));
  };

  if (spec.kind == "fig8") {
    const campaign::Fig8Params p = spec.fig8;
    for (const int n : p.nodeCounts) {
      for (const xpic::Mode m : kModes) {
        add(std::string("fig8/") + xpic::toString(m) + "/n" + std::to_string(n),
            true,
            [p, m, n](std::uint64_t, Stage stage, obs::Tracer* tracer,
                      LayerSpans& spans, WorldCounts& counts) {
              return fig8World(p, m, n, stage, tracer, spans, counts);
            });
      }
    }
  } else if (spec.kind == "halo") {
    const campaign::HaloParams p = spec.halo;
    for (const int n : p.rankCounts) {
      add("halo/r" + std::to_string(n), true,
          [p, n](std::uint64_t seed, Stage stage, obs::Tracer* tracer,
                 LayerSpans& spans, WorldCounts& counts) {
            return haloWorld(p, n, seed, stage, tracer, spans, counts);
          });
    }
  } else if (spec.kind == "resilience") {
    // The campaign resolves the platform once; every scenario's world has
    // that one shape, whatever its scheme and MTBF.
    campaign::ResilienceParams p = spec.resilience;
    if (!p.machine) {
      p.machine = hw::MachineConfig::deepEr(p.ranks + p.spareNodes, 2);
    }
    for (const campaign::CheckpointScheme& scheme : p.schemes) {
      for (const double mtbf : p.mtbfSec) {
        add("resilience/" + scheme.label + "/mtbf" + mtbfLabel(mtbf),
            cases.empty(),
            [p, scheme, mtbf](std::uint64_t seed, Stage stage,
                              obs::Tracer* tracer, LayerSpans& spans,
                              WorldCounts& counts) {
              return resilienceWorld(p, scheme, mtbf, seed, stage, tracer,
                                     spans, counts);
            });
      }
    }
  } else {
    throw std::invalid_argument("no replica worlds for campaign family '" +
                                spec.kind + "'");
  }
  return cases;
}

}  // namespace cbsim::e2e
