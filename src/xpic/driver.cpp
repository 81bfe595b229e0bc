#include "xpic/driver.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "pmpi/env.hpp"
#include "pmpi/world.hpp"
#include "xpic/field_solver.hpp"
#include "xpic/particle_solver.hpp"
#include "xpic/workmodel.hpp"

namespace cbsim::xpic {

namespace {

using pmpi::Comm;
using pmpi::Env;

// Inter-module message tags (listing 4's INTERCOMM traffic).
constexpr int kTagFields = 10;
constexpr int kTagMoments = 11;
constexpr int kTagClusterStats = 12;

/// Copies the interior cells of `fs` into `out`, field by field in row
/// order.
void packInterior(const Grid2D& g, std::span<Field2D* const> fs,
                  std::vector<double>& out) {
  std::size_t k = 0;
  for (const Field2D* f : fs) {
    for (int j = 1; j <= g.lny(); ++j) {
      for (int i = 1; i <= g.lnx(); ++i, ++k) out[k] = f->at(i, j);
    }
  }
}

void unpackInterior(const Grid2D& g, std::span<const double> in,
                    std::span<Field2D* const> fs) {
  std::size_t k = 0;
  for (Field2D* f : fs) {
    for (int j = 1; j <= g.lny(); ++j) {
      for (int i = 1; i <= g.lnx(); ++i, ++k) f->at(i, j) = in[k];
    }
  }
}

/// One direction of the inter-module interface: `fields` packed interior
/// arrays, sent as a message of the production-xPic payload size
/// (cfg.interfaceDoublesPerCell per local cell, at least the packed
/// arrays) so the simulated exchange carries the full 3D multi-species
/// 10-moment interface volume.  The padding is wire volume only: no host
/// buffer holds it (pmpi::Env::send's `wireBytes`).
struct InterfaceBuffer {
  std::vector<double> data;
  std::size_t wireBytes = 0;

  InterfaceBuffer(const Grid2D& g, const XpicConfig& cfg, std::size_t fields)
      : data(fields * static_cast<std::size_t>(g.lnx()) *
             static_cast<std::size_t>(g.lny())) {
    const double target = cfg.interfaceDoublesPerCell * g.lnx() * g.lny();
    // 2^64: a byte count at or past it is no std::size_t.
    if (!(target >= 0 && target * sizeof(double) < 0x1p64)) {
      std::ostringstream msg;
      msg << "xpic: interface wire size of " << target * sizeof(double)
          << " bytes (interface_doubles_per_cell "
          << cfg.interfaceDoublesPerCell << " x " << g.lnx() * g.lny()
          << " cells) does not fit std::size_t";
      throw std::invalid_argument(msg.str());
    }
    wireBytes = std::max(data.size(), static_cast<std::size_t>(target)) *
                sizeof(double);
  }
  [[nodiscard]] pmpi::ConstBytes bytes() const {
    return std::as_bytes(std::span<const double>(data));
  }
};

struct PhaseTimers {
  double fields = 0, particles = 0, aux = 0;
  double fieldComm = 0, particleComm = 0;
  double sync = 0;  ///< C+B: blocking waits on the inter-module exchange
};

/// Fills the physics + particle-side numbers shared by every mode.
void reduceParticlePhysics(Env& env, Comm comm, const ParticleSolver& ps,
                           const FieldArrays& f, const Grid2D& g,
                           Report& out) {
  const double dV = g.dx() * g.dy();
  out.kineticEnergy =
      env.allreduceValue(comm, ps.kineticEnergy(), pmpi::Op::Sum);
  out.netCharge =
      env.allreduceValue(comm, f.rho.interiorSum() * dV, pmpi::Op::Sum);
  out.momentumX = env.allreduceValue(comm, ps.momentum(0), pmpi::Op::Sum);
  out.particleCount = env.allreduceValue(
      comm, static_cast<std::int64_t>(ps.particleCount()), pmpi::Op::Sum);
}

// ---- Monolithic mode (listing 1) ---------------------------------------------

void monolithicMain(Env& env, const XpicConfig& cfg, Report* rep) {
  const Grid2D grid(cfg, env.size(), env.rank());
  const double cells = static_cast<double>(grid.lnx()) * grid.lny();
  FieldArrays f(grid);
  f.bz.fill(cfg.b0z);
  FieldSolver fs(cfg, grid);
  HaloExchanger halo(env, env.world(), grid);
  ParticleSolver ps(cfg, grid, 42);
  PhaseTimers t;

  // Phase bracketing: wall time and blocking-comm share per solver; the
  // span mirrors the bracket onto the rank's trace row (no-op untraced).
  const auto phase = [&](double& acc, double& comm, const char* name,
                         auto&& body) {
    const sim::SimTime s0 = env.ctx().now();
    const double t0 = env.wtime();
    const double c0 = env.commSec();
    body();
    acc += env.wtime() - t0;
    comm += env.commSec() - c0;
    env.tracePhase(name, s0);
  };

  phase(t.particles, t.particleComm, "particles",
        [&] { ps.particleMoments(f, halo, env); });

  std::vector<double> history;
  for (int step = 0; step < cfg.steps; ++step) {
    phase(t.fields, t.fieldComm, "fields",
          [&] { fs.calculateE(f, halo, env, env.world()); });
    phase(t.particles, t.particleComm, "particles", [&] {
      env.compute(workmodel::interfaceCopy(cells));
      ps.particlesMove(f, env);
      ps.migrate(env, env.world());
      ps.particleMoments(f, halo, env);
      env.compute(workmodel::interfaceCopy(cells));
    });
    phase(t.fields, t.fieldComm, "fields", [&] { fs.calculateB(f, halo, env); });
    // Diagnostics and output staging: on the critical path in this mode.
    phase(t.aux, t.particleComm, "aux", [&] {
      env.compute(workmodel::auxiliary(
          cells, static_cast<double>(ps.particleCount()) * cfg.particleScale()));
      env.ioDelay(sim::SimTime::micros(cfg.outputStagingUs));
    });
    if (cfg.historyEvery > 0 && step % cfg.historyEvery == 0) {
      const double e = env.allreduceValue(
          env.world(), f.localFieldEnergy(grid.dx() * grid.dy()),
          pmpi::Op::Sum);
      if (env.rank() == 0) history.push_back(e);
    }
  }

  // Aggregate: max over ranks for times, sums for physics.
  const Comm w = env.world();
  Report out;
  out.fieldsSec = env.allreduceValue(w, t.fields, pmpi::Op::Max);
  out.particlesSec = env.allreduceValue(w, t.particles, pmpi::Op::Max);
  out.auxSec = env.allreduceValue(w, t.aux, pmpi::Op::Max);
  out.fieldCommSec = env.allreduceValue(w, t.fieldComm, pmpi::Op::Max);
  out.particleCommSec = env.allreduceValue(w, t.particleComm, pmpi::Op::Max);
  out.fieldEnergy = env.allreduceValue(
      w, f.localFieldEnergy(grid.dx() * grid.dy()), pmpi::Op::Sum);
  out.cgIterations =
      env.allreduceValue(w, fs.totalCgIterations(), pmpi::Op::Max);
  reduceParticlePhysics(env, w, ps, f, grid, out);
  if (env.rank() == 0 && rep != nullptr) {
    const Mode mode = rep->mode;
    const int nps = rep->nodesPerSolver;
    *rep = out;
    rep->fieldEnergyHistory = std::move(history);
    rep->mode = mode;
    rep->nodesPerSolver = nps;
  }
}

// ---- C+B mode, Booster side (listing 3: the binary started first) -------------

void boosterMain(Env& env, const XpicConfig& cfg, int nodesPerSolver,
                 Report* rep) {
  pmpi::SpawnOptions opts;
  opts.partition = hw::NodeKind::Cluster;
  const Comm inter = env.commSpawn(kClusterApp, nodesPerSolver, opts);
  const int peer = env.rank();

  const Grid2D grid(cfg, env.size(), env.rank());
  const double cells = static_cast<double>(grid.lnx()) * grid.lny();
  FieldArrays f(grid);
  f.bz.fill(cfg.b0z);
  HaloExchanger halo(env, env.world(), grid);
  ParticleSolver ps(cfg, grid, 42);
  PhaseTimers t;

  const auto phase = [&](double& acc, const char* name, auto&& body) {
    const sim::SimTime s0 = env.ctx().now();
    const double t0 = env.wtime();
    body();
    acc += env.wtime() - t0;
    env.tracePhase(name, s0);
  };

  // Every send of `mom` completes before the next pack rewrites it.
  InterfaceBuffer mom(grid, cfg, 5);
  InterfaceBuffer emBuf(grid, cfg, 6);

  // Initial moments feed the Cluster's first calculateE.
  phase(t.particles, "particles", [&] { ps.particleMoments(f, halo, env); });
  packInterior(grid, f.momentFields(), mom.data);
  env.send(inter, peer, kTagMoments, mom.bytes(), mom.wireBytes);

  pmpi::Request recvFields =
      env.irecv(inter, peer, kTagFields, std::span<double>(emBuf.data));

  for (int step = 0; step < cfg.steps; ++step) {
    pmpi::Request sendMoments;
    phase(t.sync, "sync", [&] { env.wait(recvFields); });  // ClusterWait
    phase(t.particles, "particles", [&] {
      unpackInterior(grid, emBuf.data, f.emFields());
      env.compute(workmodel::interfaceCopy(cells));  // cpyFromArr_F
      halo.exchange({&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz});
      ps.particlesMove(f, env);
      ps.migrate(env, env.world());
      ps.particleMoments(f, halo, env);
      env.compute(workmodel::interfaceCopy(cells));  // cpyToArr_M
      packInterior(grid, f.momentFields(), mom.data);
      sendMoments =
          env.issend(inter, peer, kTagMoments, mom.bytes(), mom.wireBytes);
      if (step + 1 < cfg.steps) {
        recvFields =
            env.irecv(inter, peer, kTagFields, std::span<double>(emBuf.data));
      }
    });
    // I/O and auxiliary computations overlap the non-blocking send
    // (unless the overlap ablation disabled it).
    const auto boosterAux = [&] {
      env.compute(workmodel::auxiliary(
          cells, static_cast<double>(ps.particleCount()) * cfg.particleScale()));
    };
    if (cfg.overlapAux) phase(t.aux, "aux", boosterAux);
    phase(t.sync, "sync", [&] { env.wait(sendMoments); });  // BoosterWait
    if (!cfg.overlapAux) phase(t.aux, "aux", boosterAux);
  }

  // Aggregate Booster-side numbers, then merge the Cluster side's.
  const Comm w = env.world();
  Report out;
  out.particlesSec = env.allreduceValue(w, t.particles, pmpi::Op::Max);
  out.auxSec = env.allreduceValue(w, t.aux, pmpi::Op::Max);
  // Internal (solver-own) communication: halo + migration + collectives;
  // the inter-module waits are reported separately as syncSec.
  out.particleCommSec =
      env.allreduceValue(w, env.commSec() - t.sync, pmpi::Op::Max);
  out.syncSec = env.allreduceValue(w, t.sync, pmpi::Op::Max);
  reduceParticlePhysics(env, w, ps, f, grid, out);
  if (env.rank() == 0) {
    std::array<double, 6> clusterStats{};
    env.recv(inter, 0, kTagClusterStats, std::span<double>(clusterStats));
    out.fieldsSec = clusterStats[0];
    out.fieldCommSec = clusterStats[1];
    out.fieldEnergy = clusterStats[2];
    out.cgIterations = static_cast<int>(clusterStats[3]);
    out.auxSec = std::max(out.auxSec, clusterStats[4]);
    out.syncSec = std::max(out.syncSec, clusterStats[5]);
    if (rep != nullptr) {
      const Mode mode = rep->mode;
      const int nps = rep->nodesPerSolver;
      *rep = out;
      rep->mode = mode;
      rep->nodesPerSolver = nps;
    }
  }
}

// ---- C+B mode, Cluster side (listing 2: spawned child) -------------------------

void clusterMain(Env& env, const XpicConfig& cfg) {
  const Comm up = env.parent();
  if (!up.valid()) {
    throw std::logic_error("xpic.cluster must be spawned from xpic.booster");
  }
  const int peer = env.rank();
  const Grid2D grid(cfg, env.size(), env.rank());
  const double cells = static_cast<double>(grid.lnx()) * grid.lny();
  FieldArrays f(grid);
  f.bz.fill(cfg.b0z);
  FieldSolver fs(cfg, grid);
  HaloExchanger halo(env, env.world(), grid);
  PhaseTimers t;

  const auto phase = [&](double& acc, const char* name, auto&& body) {
    const sim::SimTime s0 = env.ctx().now();
    const double t0 = env.wtime();
    body();
    acc += env.wtime() - t0;
    env.tracePhase(name, s0);
  };

  // Every send of `em` completes before the next pack rewrites it.
  InterfaceBuffer em(grid, cfg, 6);
  InterfaceBuffer momBuf(grid, cfg, 5);
  env.recv(up, peer, kTagMoments, std::span<double>(momBuf.data));
  unpackInterior(grid, momBuf.data, f.momentFields());

  for (int step = 0; step < cfg.steps; ++step) {
    pmpi::Request sendFields, recvMoments;
    phase(t.fields, "fields", [&] {
      fs.calculateE(f, halo, env, env.world());
      env.compute(workmodel::interfaceCopy(cells));  // cpyToArr_F
      packInterior(grid, f.emFields(), em.data);
      sendFields = env.issend(up, peer, kTagFields, em.bytes(), em.wireBytes);
      recvMoments =
          env.irecv(up, peer, kTagMoments, std::span<double>(momBuf.data));
    });
    // Auxiliary computations + output staging overlap the exchange
    // (listing 2, line 6): the Cluster side owns the snapshot writing in
    // C+B mode, hidden under the Booster's particle phase.
    const auto clusterAux = [&] {
      env.compute(workmodel::auxiliary(cells, 0.0));
      env.ioDelay(sim::SimTime::micros(cfg.outputStagingUs));
    };
    if (cfg.overlapAux) phase(t.aux, "aux", clusterAux);
    phase(t.sync, "sync", [&] {
      env.wait(sendFields);   // ClusterWait
      env.wait(recvMoments);  // BoosterWait
    });
    if (!cfg.overlapAux) phase(t.aux, "aux", clusterAux);
    phase(t.fields, "fields", [&] {
      unpackInterior(grid, momBuf.data, f.momentFields());
      env.compute(workmodel::interfaceCopy(cells));  // cpyFromArr_M
      fs.calculateB(f, halo, env);
    });
  }

  const Comm w = env.world();
  const double maxFields = env.allreduceValue(w, t.fields, pmpi::Op::Max);
  const double maxComm =
      env.allreduceValue(w, env.commSec() - t.sync, pmpi::Op::Max);
  const double maxAux = env.allreduceValue(w, t.aux, pmpi::Op::Max);
  const double maxSync = env.allreduceValue(w, t.sync, pmpi::Op::Max);
  const double energy = env.allreduceValue(
      w, f.localFieldEnergy(grid.dx() * grid.dy()), pmpi::Op::Sum);
  const double iters =
      env.allreduceValue(w, static_cast<double>(fs.totalCgIterations()),
                         pmpi::Op::Max);
  if (env.rank() == 0) {
    const std::array<double, 6> stats = {maxFields, maxComm, energy,
                                         iters,     maxAux,  maxSync};
    env.send(up, 0, kTagClusterStats, std::span<const double>(stats));
  }
}

}  // namespace

void registerXpicApps(pmpi::AppRegistry& registry, const XpicConfig& cfg,
                      int nodesPerSolver, Report* report) {
  registry.add(kMonolithicApp,
               [cfg, report](Env& env) { monolithicMain(env, cfg, report); });
  registry.add(kBoosterApp, [cfg, nodesPerSolver, report](Env& env) {
    boosterMain(env, cfg, nodesPerSolver, report);
  });
  registry.add(kClusterApp, [cfg](Env& env) { clusterMain(env, cfg); });
}

Report runXpic(Mode mode, int nodesPerSolver, const XpicConfig& cfg,
               hw::MachineConfig machineCfg, obs::Tracer* tracer) {
  pmpi::World w(std::move(machineCfg), {}, sim::Engine::kDefaultSeed, tracer);

  Report report;
  report.mode = mode;
  report.nodesPerSolver = nodesPerSolver;
  registerXpicApps(w.registry, cfg, nodesPerSolver, &report);

  switch (mode) {
    case Mode::ClusterOnly:
      w.rt.launch(kMonolithicApp, hw::NodeKind::Cluster, nodesPerSolver);
      break;
    case Mode::BoosterOnly:
      w.rt.launch(kMonolithicApp, hw::NodeKind::Booster, nodesPerSolver);
      break;
    case Mode::ClusterBooster:
      w.rt.launch(kBoosterApp, hw::NodeKind::Booster, nodesPerSolver);
      break;
  }
  w.run();
  report.wallSec = w.engine.now().toSeconds();
  return report;
}

}  // namespace cbsim::xpic
