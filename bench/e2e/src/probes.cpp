#include "probes.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>

#include "campaign/builtin.hpp"
#include "extoll/fabric.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "pmpi/env.hpp"
#include "pmpi/runtime.hpp"
#include "rm/resource_manager.hpp"
#include "sim/engine.hpp"
#include "xpic/config.hpp"
#include "xpic/field_solver.hpp"
#include "xpic/fields.hpp"
#include "xpic/grid.hpp"
#include "xpic/halo.hpp"
#include "xpic/particle_solver.hpp"

#include "measure.hpp"

namespace cbsim::e2e {

namespace {

constexpr int kRepeats = 3;

template <typename Fn>
double medianOfRepeats(Fn&& sample) {
  std::vector<double> v;
  for (int i = 0; i < kRepeats; ++i) v.push_back(sample());
  return median(std::move(v));
}

/// (src, dst) endpoints of the halo stencil's four neighbour sends per
/// rank, with rank r on the r-th Cluster node (the resource manager's
/// lowest-id-first allocation) and the halo scenario's px x py grid.
std::vector<std::pair<int, int>> haloPairs(const hw::Machine& machine) {
  const std::vector<int> nodes = machine.nodesOfKind(hw::NodeKind::Cluster);
  const int ranks = static_cast<int>(nodes.size());
  int px = 1;
  for (int d = 1; static_cast<long long>(d) * d <= ranks; ++d) {
    if (ranks % d == 0) px = d;
  }
  const int py = ranks / px;
  const auto ep = [&](int rank) {
    return machine.endpointOfNode(nodes[static_cast<std::size_t>(rank)]);
  };
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(ranks) * 4);
  for (int r = 0; r < ranks; ++r) {
    const int x = r % px;
    const int y = r / px;
    const auto at = [&](int xx, int yy) {
      return ((yy + py) % py) * px + ((xx + px) % px);
    };
    for (const int nb : {at(x - 1, y), at(x + 1, y), at(x, y - 1),
                         at(x, y + 1)}) {
      pairs.emplace_back(ep(r), ep(nb));
    }
  }
  return pairs;
}

void chainStep(sim::Engine& e, std::uint64_t& left) {
  if (left > 0) {
    --left;
    e.schedule(sim::SimTime::micros(1.0), [&e, &left] { chainStep(e, left); });
  }
}

}  // namespace

double eventNs() {
  return medianOfRepeats([] {
    sim::Engine e(1);
    std::vector<std::uint64_t> chains(64, 20000);
    for (std::uint64_t& c : chains) chainStep(e, c);
    sim::RunStats st;
    double t = 0;
    timed(t, [&] { st = e.run(); });
    return t * 1e9 / static_cast<double>(st.eventsProcessed);
  });
}

double switchNs() {
  return medianOfRepeats([] {
    constexpr int kIters = 100000;
    sim::Engine e(1);
    sim::Process* ping = nullptr;
    sim::Process* pong = nullptr;
    pong = &e.spawn("pong", [&](sim::Context& ctx) {
      for (int i = 0; i < kIters; ++i) {
        ctx.suspend();
        e.wake(*ping);
      }
    });
    ping = &e.spawn("ping", [&](sim::Context& ctx) {
      for (int i = 0; i < kIters; ++i) {
        e.wake(*pong);
        ctx.suspend();
      }
    });
    sim::RunStats st;
    double t = 0;
    timed(t, [&] { st = e.run(); });
    // Each event resumes one process: a switch in and a switch out.
    return t * 1e9 / (2.0 * static_cast<double>(st.eventsProcessed));
  });
}

RouteNs routeNs(const hw::MachineConfig& cfg) {
  sim::Engine engine(1);
  hw::Machine machine(engine, cfg);
  const std::vector<std::pair<int, int>> pairs = haloPairs(machine);
  const double n = static_cast<double>(pairs.size());
  std::vector<double> cold;
  std::vector<double> warm;
  double sink = 0;
  for (int i = 0; i < kRepeats; ++i) {
    const extoll::Fabric fabric(machine);
    const auto sweep = [&] {
      for (const auto& [s, d] : pairs) sink += fabric.pathLatency(s, d).toSeconds();
    };
    double tc = 0;
    double tw = 0;
    timed(tc, sweep);
    timed(tw, sweep);
    cold.push_back(tc * 1e9 / n);
    warm.push_back(tw * 1e9 / n);
  }
  if (!(sink > 0)) throw std::logic_error("route probe: no path latency");
  return {median(cold), median(warm)};
}

double sendNs(const hw::MachineConfig& cfg, double bytes) {
  sim::Engine engine(1);
  hw::Machine machine(engine, cfg);
  extoll::Fabric fabric(machine);
  const std::vector<std::pair<int, int>> pairs = haloPairs(machine);
  std::uint64_t arrived = 0;
  // One batch = every neighbour pair sends once; the first batch warms the
  // route cache the way a halo world's first step does.
  const auto batch = [&] {
    for (const auto& [s, d] : pairs) {
      engine.schedule(sim::SimTime::zero(), [&fabric, &arrived, s, d, bytes] {
        fabric.send(s, d, bytes, [&arrived] { ++arrived; });
      });
    }
    double t = 0;
    timed(t, [&] { engine.run(); });
    return t * 1e9 / static_cast<double>(pairs.size());
  };
  batch();
  const double ns = medianOfRepeats(batch);
  if (arrived != pairs.size() * (kRepeats + 1)) {
    throw std::logic_error("send probe: lost messages");
  }
  return ns;
}

double metricsAddNs(const std::vector<std::pair<std::string, bool>>& keys) {
  if (keys.empty()) throw std::invalid_argument("metrics probe: no keys");
  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937_64(1));
  obs::Metrics m;
  const auto pass = [&] {
    for (const std::size_t i : order) {
      if (keys[i].second) {
        m.gaugeAdd(keys[i].first, 1.0);
      } else {
        m.add(keys[i].first, 1.0);
      }
    }
  };
  pass();  // registers every key; the timed passes are lookups
  return medianOfRepeats([&] {
    double t = 0;
    timed(t, pass);
    return t * 1e9 / static_cast<double>(keys.size());
  });
}

double pingPongNs(std::size_t bytes, int roundTrips, bool reliable) {
  return medianOfRepeats([&] {
    fault::FaultPlan plan;
    const campaign::ResilienceParams lossy;
    plan.dropProb = lossy.dropProb;
    plan.corruptProb = lossy.corruptProb;
    sim::Engine engine(1);
    hw::Machine machine(engine, hw::MachineConfig::deepEr(2, 1));
    extoll::Fabric fabric(machine);
    if (reliable) fabric.setFaultPlan(&plan);
    rm::ResourceManager resources(machine);
    pmpi::AppRegistry registry;
    pmpi::ProtocolParams protocol;
    protocol.reliable = reliable;
    pmpi::Runtime rt(machine, fabric, resources, registry, protocol);
    registry.add("pingpong", [&](pmpi::Env& env) {
      std::vector<std::byte> buf(bytes, std::byte{1});
      const int peer = 1 - env.rank();
      for (int i = 0; i < roundTrips; ++i) {
        if (env.rank() == 0) {
          env.send(env.world(), peer, 0, pmpi::ConstBytes(buf));
          env.recv(env.world(), peer, 0, pmpi::Bytes(buf));
        } else {
          env.recv(env.world(), peer, 0, pmpi::Bytes(buf));
          env.send(env.world(), peer, 0, pmpi::ConstBytes(buf));
        }
      }
    });
    rt.launch("pingpong", hw::NodeKind::Cluster, 2);
    sim::RunStats st;
    double t = 0;
    timed(t, [&] { st = engine.run(); });
    if (st.deadlocked()) throw std::runtime_error("ping-pong probe deadlocked");
    return t * 1e9 / (2.0 * roundTrips);
  });
}

XpicKernelSeconds xpicKernels() {
  const xpic::XpicConfig cfg = xpic::XpicConfig::tableII();
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::deepEr());
  extoll::Fabric fabric(machine);
  rm::ResourceManager resources(machine);
  pmpi::AppRegistry registry;
  pmpi::Runtime rt(machine, fabric, resources, registry, {});
  XpicKernelSeconds k;
  // The monolithic step of xpic/driver.cpp with the interface copies and
  // auxiliary work left out: only the solver calls, each in its own span.
  registry.add("xpic.kernels", [&](pmpi::Env& env) {
    const xpic::Grid2D grid(cfg, env.size(), env.rank());
    xpic::FieldArrays f(grid);
    f.bz.fill(cfg.b0z);
    xpic::FieldSolver fs(cfg, grid);
    xpic::HaloExchanger halo(env, env.world(), grid);
    xpic::ParticleSolver ps(cfg, grid, 42);
    ps.particleMoments(f, halo, env);
    for (int step = 0; step < cfg.steps; ++step) {
      timed(k.calculateE, [&] { fs.calculateE(f, halo, env, env.world()); });
      timed(k.particlesMove, [&] { ps.particlesMove(f, env); });
      timed(k.migrate, [&] { ps.migrate(env, env.world()); });
      timed(k.particleMoments, [&] { ps.particleMoments(f, halo, env); });
      timed(k.calculateB, [&] { fs.calculateB(f, halo, env); });
    }
  });
  rt.launch("xpic.kernels", hw::NodeKind::Cluster, 1);
  if (engine.run().deadlocked()) {
    throw std::runtime_error("xpic kernel probe deadlocked");
  }
  return k;
}

}  // namespace cbsim::e2e
