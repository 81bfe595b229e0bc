// xPic tests: decomposition and grid math, interpolation/deposition,
// bitwise oracles for every variant of the mover, deposit and
// collectLeavers kernels and their guards, single-particle physics
// (gyromotion, uniform-field acceleration), migration bookkeeping, halo
// exchange across ranks, field-solver convergence, the inter-module
// payload size, and full-run invariants in all three execution modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"
#include "xpic/driver.hpp"
#include "xpic/field_solver.hpp"
#include "xpic/particle_solver.hpp"
#include "xpic/species.hpp"

namespace {

using namespace cbsim;
using xpic::Decomposition;
using xpic::Field2D;
using xpic::FieldArrays;
using xpic::Grid2D;
using xpic::Species;
using xpic::SpeciesParams;
using xpic::XpicConfig;

// ---- Decomposition / grid ------------------------------------------------------

TEST(Decomposition, FactorsDivideGrid) {
  for (const int ranks : {1, 2, 4, 8, 16}) {
    const Decomposition d = Decomposition::make(ranks, 64, 64);
    EXPECT_EQ(d.px * d.py, ranks);
    EXPECT_EQ(64 % d.px, 0);
    EXPECT_EQ(64 % d.py, 0);
  }
  const Decomposition d8 = Decomposition::make(8, 64, 64);
  EXPECT_EQ(d8.px, 4);
  EXPECT_EQ(d8.py, 2);
}

TEST(Grid2D, BlocksTileTheDomain) {
  const XpicConfig cfg = XpicConfig::tableII();
  int cells = 0;
  for (int r = 0; r < 4; ++r) {
    const Grid2D g(cfg, 4, r);
    cells += g.lnx() * g.lny();
    EXPECT_EQ(g.ranks(), 4);
  }
  EXPECT_EQ(cells, cfg.cells());
}

TEST(Grid2D, NeighbourWrapsPeriodically) {
  const XpicConfig cfg = XpicConfig::tableII();
  const Grid2D g(cfg, 4, 0);  // 2x2 process grid
  EXPECT_EQ(g.neighbour(1, 0), 1);
  EXPECT_EQ(g.neighbour(-1, 0), 1);  // wrap
  EXPECT_EQ(g.neighbour(0, 1), 2);
  EXPECT_EQ(g.neighbour(1, 1), 3);
  EXPECT_EQ(g.neighbour(0, 0), 0);
}

TEST(Field2D, InteriorReductions) {
  Field2D a(4, 4), b(4, 4);
  a.fill(2.0);
  b.fill(3.0);
  EXPECT_DOUBLE_EQ(interiorDot(a, b), 16 * 6.0);
  interiorAxpy(a, 0.5, b);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 3.5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);  // ghosts untouched
}

// ---- Interpolation ---------------------------------------------------------------

TEST(Interpolate, ConstantFieldIsExact) {
  XpicConfig cfg = XpicConfig::tiny();
  const Grid2D g(cfg, 1, 0);
  Field2D f(g.lnx(), g.lny());
  f.fill(7.25);
  for (double x : {0.1, 3.3, 12.0}) {
    EXPECT_NEAR(xpic::interpolate(f, g, x, x * 0.7 + 1.0), 7.25, 1e-12);
  }
}

TEST(Interpolate, LinearFieldIsExact) {
  XpicConfig cfg = XpicConfig::tiny();
  const Grid2D g(cfg, 1, 0);
  Field2D f(g.lnx(), g.lny());
  // f = 2x + 3y at cell centers, extended into ghosts linearly.
  for (int j = 0; j <= g.lny() + 1; ++j) {
    for (int i = 0; i <= g.lnx() + 1; ++i) {
      const double xc = (i - 0.5) * g.dx();
      const double yc = (j - 0.5) * g.dy();
      f.at(i, j) = 2 * xc + 3 * yc;
    }
  }
  for (double x : {1.0, 2.7, 9.4}) {
    const double y = 0.5 * x + 2.0;
    EXPECT_NEAR(xpic::interpolate(f, g, x, y), 2 * x + 3 * y, 1e-10);
  }
}

// ---- Single-particle physics -------------------------------------------------------

XpicConfig singleParticleCfg() {
  XpicConfig cfg = XpicConfig::tiny();
  cfg.dt = 0.05;
  cfg.moverIterations = 3;
  return cfg;
}

TEST(Species, GyromotionConservesSpeedExactly) {
  const XpicConfig cfg = singleParticleCfg();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  f.bz.fill(1.0);
  SpeciesParams p;
  p.charge = -1;
  p.mass = 1;
  Species s(p, cfg);
  s.addParticle(cfg.lx / 2, cfg.ly / 2, 0.02, 0.0, 0.0);
  const double v0 = 0.02;
  for (int i = 0; i < 200; ++i) s.move(f, g);
  const double ke = s.kineticEnergy();
  const double v = std::sqrt(2 * ke / (p.mass * s.weight()));
  EXPECT_NEAR(v, v0, 1e-12);  // the rotation form is norm-preserving
}

TEST(Species, GyroPeriodMatchesCyclotronFrequency) {
  const XpicConfig cfg = singleParticleCfg();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  const double b0 = 0.5;
  f.bz.fill(b0);
  SpeciesParams p;
  p.charge = -1;
  p.mass = 1;
  Species s(p, cfg);
  s.addParticle(cfg.lx / 2, cfg.ly / 2, 0.01, 0.0, 0.0);
  // u = v0 cos(w t): one full period spans three consecutive zero
  // crossings (at pi/2, 3pi/2, 5pi/2).
  double prevU = s.us()[0];
  int crossings = 0;
  int steps = 0;
  int firstCrossing = 0;
  while (crossings < 3 && steps < 10000) {
    s.move(f, g);
    ++steps;
    const double nu = s.us()[0];
    if ((prevU < 0) != (nu < 0)) {
      ++crossings;
      if (crossings == 1) firstCrossing = steps;
    }
    prevU = nu;
  }
  const double period = (steps - firstCrossing) * cfg.dt;
  const double expected = 2 * std::numbers::pi * p.mass / (std::abs(p.charge) * b0);
  EXPECT_NEAR(period, expected, expected * 0.02);
}

TEST(Species, UniformEFieldAcceleratesExactly) {
  const XpicConfig cfg = singleParticleCfg();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  f.ez.fill(0.01);  // z-field: no spatial motion, no B -> exact update
  SpeciesParams p;
  p.charge = -1;
  p.mass = 2.0;
  Species s(p, cfg);
  s.addParticle(cfg.lx / 2, cfg.ly / 2, 0.0, 0.0, 0.0);
  const int n = 50;
  for (int i = 0; i < n; ++i) s.move(f, g);
  const double expected = p.charge / p.mass * 0.01 * cfg.dt * n;
  const double pz = s.momentum(2) / (p.mass * s.weight());
  EXPECT_NEAR(pz, expected, std::abs(expected) * 1e-10);
}

// ---- Deposition ------------------------------------------------------------------

TEST(Species, DepositConservesCharge) {
  const XpicConfig cfg = XpicConfig::tiny();
  const Grid2D g(cfg, 1, 0);
  FieldArrays f(g);
  SpeciesParams p;
  p.charge = -1;
  p.perCell = 4;
  Species s(p, cfg);
  sim::Rng rng(3);
  s.initThermal(g, rng);
  s.deposit(f, g);
  // Single rank: fold the ghost deposits back in (periodic).
  double total = 0;
  for (int j = 0; j <= g.lny() + 1; ++j) {
    for (int i = 0; i <= g.lnx() + 1; ++i) total += f.rho.at(i, j);
  }
  const double dV = g.dx() * g.dy();
  EXPECT_NEAR(total * dV, s.chargeTotal(), 1e-9);
  EXPECT_GT(f.chi.interiorSum(), 0.0);  // susceptibility is positive
}

// ---- Kernel oracle ----------------------------------------------------------------
//
// The per-field scalar mover and deposit that the fused, batched kernels
// replaced, kept as the reference.  Species::move and Species::deposit must
// reproduce them bit for bit, in every kernel variant the host runs: the
// same IEEE operations per particle, and every moment cell accumulated in
// particle order.

using xpic::ParticleKernels;

/// The kernel variants this host runs, each called directly by the tests;
/// prints the name of every variant it skips.
std::vector<ParticleKernels> hostKernels() {
  std::vector<ParticleKernels> out;
  for (const ParticleKernels k :
       {ParticleKernels::scalar, ParticleKernels::avx512}) {
    if (xpic::hostRuns(k)) {
      out.push_back(k);
    } else {
      std::printf(
          "[ SKIPPED  ] %s particle kernels: this host's CPU cannot run them\n",
          xpic::kernelsName(k));
    }
  }
  return out;
}

struct RefStencil {
  int i, j;
  double wx, wy;
};

RefStencil refStencilAt(const Grid2D& g, double x, double y) {
  const double gx = x / g.dx() - 0.5;
  const double gy = y / g.dy() - 0.5;
  const int gi = static_cast<int>(std::floor(gx));
  const int gj = static_cast<int>(std::floor(gy));
  return {gi - g.x0() + 1, gj - g.y0() + 1, gx - gi, gy - gj};
}

double refGather(const Field2D& f, const RefStencil& s) {
  return (1 - s.wx) * (1 - s.wy) * f.at(s.i, s.j) +
         s.wx * (1 - s.wy) * f.at(s.i + 1, s.j) +
         (1 - s.wx) * s.wy * f.at(s.i, s.j + 1) +
         s.wx * s.wy * f.at(s.i + 1, s.j + 1);
}

void refScatter(Field2D& f, const RefStencil& s, double v) {
  f.at(s.i, s.j) += (1 - s.wx) * (1 - s.wy) * v;
  f.at(s.i + 1, s.j) += s.wx * (1 - s.wy) * v;
  f.at(s.i, s.j + 1) += (1 - s.wx) * s.wy * v;
  f.at(s.i + 1, s.j + 1) += s.wx * s.wy * v;
}

double refWrap(double v, double period) {
  if (v >= period) return v - period;
  if (v < 0) return v + period;
  return v;
}

/// Particle arrays of the reference, one vector per component.
struct RefParticles {
  std::vector<double> x, y, u, v, w;

  /// [x y u v w] per particle, the layout of Species::packAll.
  [[nodiscard]] std::vector<double> packed() const {
    std::vector<double> out;
    for (std::size_t k = 0; k < x.size(); ++k) {
      out.insert(out.end(), {x[k], y[k], u[k], v[k], w[k]});
    }
    return out;
  }
};

void refMove(RefParticles& p, const SpeciesParams& sp, const XpicConfig& cfg,
             const FieldArrays& f, const Grid2D& g) {
  const double dt = cfg.dt;
  const double qdt2m = sp.charge * dt / (2.0 * sp.mass);
  const int iters = std::max(1, cfg.moverIterations);
  for (std::size_t k = 0; k < p.x.size(); ++k) {
    double xb = p.x[k], yb = p.y[k];
    double ub = p.u[k], vb = p.v[k], wb = p.w[k];
    for (int it = 0; it < iters; ++it) {
      const RefStencil s = refStencilAt(g, xb, yb);
      const double ex = refGather(f.ex, s), ey = refGather(f.ey, s),
                   ez = refGather(f.ez, s);
      const double bx = refGather(f.bx, s), by = refGather(f.by, s),
                   bz = refGather(f.bz, s);
      const double vx = p.u[k] + qdt2m * ex;
      const double vy = p.v[k] + qdt2m * ey;
      const double vz = p.w[k] + qdt2m * ez;
      const double tx = qdt2m * bx, ty = qdt2m * by, tz = qdt2m * bz;
      const double tsq = tx * tx + ty * ty + tz * tz;
      const double vdt = vx * tx + vy * ty + vz * tz;
      const double inv = 1.0 / (1.0 + tsq);
      ub = (vx + (vy * tz - vz * ty) + vdt * tx) * inv;
      vb = (vy + (vz * tx - vx * tz) + vdt * ty) * inv;
      wb = (vz + (vx * ty - vy * tx) + vdt * tz) * inv;
      xb = p.x[k] + 0.5 * dt * ub;
      yb = p.y[k] + 0.5 * dt * vb;
    }
    p.u[k] = 2.0 * ub - p.u[k];
    p.v[k] = 2.0 * vb - p.v[k];
    p.w[k] = 2.0 * wb - p.w[k];
    p.x[k] = refWrap(p.x[k] + dt * ub, g.lxGlobal());
    p.y[k] = refWrap(p.y[k] + dt * vb, g.lyGlobal());
  }
}

void refDeposit(const RefParticles& p, const SpeciesParams& sp,
                const XpicConfig& cfg, double weight, FieldArrays& f,
                const Grid2D& g) {
  const double invDV = 1.0 / (cfg.dx() * cfg.dy());
  const double qw = sp.charge * weight * invDV;
  const double chiw = sp.charge * sp.charge / sp.mass * weight * invDV * 0.5 *
                      (cfg.theta * cfg.dt) * (cfg.theta * cfg.dt);
  for (std::size_t k = 0; k < p.x.size(); ++k) {
    const RefStencil s = refStencilAt(g, p.x[k], p.y[k]);
    refScatter(f.rho, s, qw);
    refScatter(f.jx, s, qw * p.u[k]);
    refScatter(f.jy, s, qw * p.v[k]);
    refScatter(f.jz, s, qw * p.w[k]);
    refScatter(f.chi, s, chiw);
  }
}

bool sameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  // An empty vector's data() may be null, which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// `n` particles inside g's block: first the edge cases (cell faces, cell
/// centres, the block's lower corner, and particles about to cross the
/// global periodic boundary), then random ones.
RefParticles oracleParticles(const Grid2D& g, std::size_t n, sim::Rng& rng) {
  RefParticles p;
  const auto add = [&](double x, double y, double u, double v, double w) {
    if (p.x.size() == n) return;
    p.x.push_back(x);
    p.y.push_back(y);
    p.u.push_back(u);
    p.v.push_back(v);
    p.w.push_back(w);
  };
  const double x1 = g.xMin() + 3 * g.dx(), y1 = g.yMin() + 2 * g.dy();
  add(x1, g.yMin() + 1.3 * g.dy(), 0.2, -0.1, 0.05);  // x on a cell face
  add(x1 + 0.5 * g.dx(), y1, -0.1, 0.3, 0.0);          // y face, x centre
  add(g.xMin(), g.yMin(), -0.05, -0.05, 0.1);          // block corner
  // Global periodic wrap: leaves through x = 0 / x = L (y likewise) when
  // the block touches that boundary.
  if (g.x0() == 0) add(1e-3, y1, -0.5, 0.0, 0.0);
  if (g.xMax() == g.lxGlobal()) add(g.lxGlobal() - 1e-3, y1, 0.5, 0.0, 0.0);
  if (g.y0() == 0) add(x1, 1e-3, 0.0, -0.5, 0.0);
  if (g.yMax() == g.lyGlobal()) add(x1, g.lyGlobal() - 1e-3, 0.0, 0.5, 0.0);
  while (p.x.size() < n) {
    add(g.xMin() + rng.uniform() * (g.xMax() - g.xMin()),
        g.yMin() + rng.uniform() * (g.yMax() - g.yMin()), 0.3 * rng.normal(),
        0.3 * rng.normal(), 0.3 * rng.normal());
  }
  return p;
}

TEST(Species, KernelsMatchScalarReferenceBitForBit) {
  for (const ParticleKernels kernels : hostKernels()) {
    XpicConfig cfg = XpicConfig::tiny();
    int cases = 0;
    // A new thread starts without a cell table: the 8x8 block of the
    // 4-rank grid sizes it, then the 16x16 block of the 1-rank grid must
    // grow it.
    std::thread([&] {
      for (const int ranks : {4, 1}) {
        // Rank 3 of a 2x2 decomposition: x0, y0 != 0, touching x = L, y = L.
        const Grid2D g(cfg, ranks, ranks - 1);
        for (const int iters : {1, 3}) {
          cfg.moverIterations = iters;
          for (const double charge : {-1.0, 1.0}) {
            // Below one batch, one batch, a batch and a tail, a batch pair
            // alone, with a tail, with a single batch, with both, and many.
            for (const std::size_t n :
                 {1u, 7u, 8u, 9u, 16u, 17u, 24u, 31u, 1003u}) {
              SCOPED_TRACE(::testing::Message()
                           << xpic::kernelsName(kernels) << " ranks=" << ranks
                           << " iters=" << iters << " charge=" << charge
                           << " n=" << n);
              sim::Rng rng(1000 + n);
              FieldArrays f(g);
              for (Field2D* e : f.emFields()) {
                for (double& v : e->raw()) v = 0.4 * (rng.uniform() - 0.5);
              }
              for (Field2D* m : f.momentFields()) {
                for (double& v : m->raw()) v = rng.uniform();
              }
              FieldArrays fRef = f;
              SpeciesParams sp;
              sp.charge = charge;
              sp.mass = charge < 0 ? 1.0 : cfg.massRatio;
              Species s(sp, cfg);
              RefParticles ref = oracleParticles(g, n, rng);
              for (std::size_t k = 0; k < n; ++k) {
                s.addParticle(ref.x[k], ref.y[k], ref.u[k], ref.v[k], ref.w[k]);
              }

              // Deposit on top of non-zero moments, ghost ring included.
              s.deposit(f, g, kernels);
              refDeposit(ref, sp, cfg, s.weight(), fRef, g);
              for (std::size_t m = 0; m < 5; ++m) {
                EXPECT_TRUE(sameBytes(f.momentFields()[m]->raw(),
                                      fRef.momentFields()[m]->raw()))
                    << "moment " << m;
              }
              s.move(f, g, kernels);
              refMove(ref, sp, cfg, fRef, g);
              EXPECT_TRUE(sameBytes(s.packAll(), ref.packed()));
              ++cases;
            }
          }
        }
      }
    }).join();
    EXPECT_EQ(cases, 72);
  }
}

TEST(Species, KernelsRejectParticlesOutsideTheGhostRing) {
  XpicConfig cfg = XpicConfig::tiny();
  cfg.lx = cfg.ly = 16.0;  // unit cells: the stencil bounds are exact
  const Grid2D g(cfg, 4, 3);  // block [8, 16) x [8, 16)
  FieldArrays f(g);
  SpeciesParams p;
  const auto fails = [&](double x, double y, double u, bool deposit) {
    Species s(p, cfg);
    s.addParticle(x, y, u, 0.0, 0.0);
    try {
      if (deposit) {
        s.deposit(f, g);
      } else {
        s.move(f, g);
      }
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).find("xpic: particle left the ghost ring") !=
             std::string::npos;
    }
    return false;
  };
  const double below = -std::numeric_limits<double>::infinity();
  const double xIn = g.xMin() + 1.0, yIn = g.yMin() + 1.0;
  EXPECT_FALSE(fails(xIn, yIn, 0.5, false));
  // The stencil may reach into the ghost ring: positions within half a
  // cell of the block, [7.5, 16.5) on both axes, and nothing beyond.
  for (const bool onX : {true, false}) {
    const auto at = [&](double c) {
      return onX ? fails(c, yIn, 0.0, true) : fails(xIn, c, 0.0, true);
    };
    EXPECT_FALSE(at(7.5));
    EXPECT_TRUE(at(std::nextafter(7.5, below)));
    EXPECT_FALSE(at(std::nextafter(16.5, below)));
    EXPECT_TRUE(at(16.5));
  }
  // The half-step position of a particle crossing the block in one step.
  EXPECT_TRUE(fails(xIn, yIn, 1000.0, false));
  // Non-finite positions.
  EXPECT_TRUE(fails(std::nan(""), yIn, 0.0, true));
  EXPECT_TRUE(fails(xIn, std::numeric_limits<double>::infinity(), 0.0, false));
}

TEST(Species, KernelsRejectAtEveryLaneLikeTheScalarKernels) {
  // One particle outside the ghost ring at each position of a 16-particle
  // population (every lane of both batches of a pair), sometimes with a
  // second one three places further, in the same batch or in the other
  // one: every variant must throw the scalar kernels' message, naming the
  // lowest such lane of the first batch that fails, and leave the same
  // particle and moment arrays behind.
  XpicConfig cfg = XpicConfig::tiny();
  cfg.lx = cfg.ly = 16.0;
  const Grid2D g(cfg, 4, 3);  // block [8, 16) x [8, 16), ghost ring to 16.5
  sim::Rng rng(0x6c616e65);
  FieldArrays fields(g);
  for (Field2D* e : fields.emFields()) {
    for (double& v : e->raw()) v = 0.4 * (rng.uniform() - 0.5);
  }
  for (Field2D* m : fields.momentFields()) {
    for (double& v : m->raw()) v = rng.uniform();
  }
  std::vector<double> inside;  // [x y u v w] of 16 particles inside the block
  for (int k = 0; k < 16; ++k) {
    inside.insert(inside.end(),
                  {8.5 + 7 * rng.uniform(), 8.5 + 7 * rng.uniform(),
                   0.1 * rng.normal(), 0.1 * rng.normal(), 0.1 * rng.normal()});
  }
  struct Outcome {
    std::string error;
    std::vector<double> particles;
    std::vector<std::vector<double>> moments;
  };
  const auto run = [&](ParticleKernels kernels, bool deposit,
                       const std::vector<double>& packed) {
    Species s(SpeciesParams{}, cfg);
    s.addPacked(packed);
    FieldArrays f = fields;
    Outcome o;
    try {
      if (deposit) {
        s.deposit(f, g, kernels);
      } else {
        s.move(f, g, kernels);
      }
    } catch (const std::runtime_error& e) {
      o.error = e.what();
    }
    o.particles = s.packAll();
    for (Field2D* m : f.momentFields()) o.moments.push_back(m->raw());
    return o;
  };
  const std::vector<ParticleKernels> variants = hostKernels();
  int checked = 0, lateThenOutside = 0;
  for (const bool deposit : {false, true}) {
    for (std::size_t bad = 0; bad < 16; ++bad) {
      for (const int second : {0, 1}) {
        std::vector<double> packed = inside;
        // Outside from the start, or (move only) driven out of the ring by
        // the half-step position of the second sweep.
        const bool late = !deposit && bad % 2 == 1;
        packed[5 * bad] = late ? 12.0 : 17.0 + static_cast<double>(bad);
        packed[5 * bad + 2] = late ? 1000.0 : 0.0;
        const std::size_t other = bad + 3;
        if (second == 1) {
          if (other >= 16) continue;
          packed[5 * other] = 7.0 - static_cast<double>(other);
        }
        const Outcome ref = run(ParticleKernels::scalar, deposit, packed);
        ASSERT_NE(ref.error.find("xpic: particle left the ghost ring"),
                  std::string::npos)
            << ref.error;
        if (late && second == 1 && other / 8 != bad / 8) {
          // Batch 0 leaves on its second sweep, batch 1 is outside from
          // the start: the pair fails on batch 1 first, yet the error must
          // be batch 0's.
          EXPECT_EQ(ref.error.find("x=" + std::to_string(packed[5 * other])),
                    std::string::npos)
              << ref.error;
          ++lateThenOutside;
        }
        for (const ParticleKernels kernels : variants) {
          SCOPED_TRACE(::testing::Message()
                       << xpic::kernelsName(kernels)
                       << (deposit ? " deposit" : " move") << " bad=" << bad
                       << " second=" << second);
          const Outcome got = run(kernels, deposit, packed);
          EXPECT_EQ(got.error, ref.error);
          EXPECT_TRUE(sameBytes(got.particles, ref.particles));
          for (std::size_t m = 0; m < ref.moments.size(); ++m) {
            EXPECT_TRUE(sameBytes(got.moments[m], ref.moments[m]))
                << "moment " << m;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * (16 + 13) * static_cast<int>(variants.size()));
  EXPECT_EQ(lateThenOutside, 2);  // bad = 5 and 7
}

// ---- Migration bookkeeping ----------------------------------------------------------

TEST(Species, DirIndexRoundtrips) {
  int seen = 0;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int dir = Species::dirIndex(dx, dy);
      EXPECT_GE(dir, 0);
      EXPECT_LT(dir, 8);
      const auto [ox, oy] = Species::dirOffset(dir);
      EXPECT_EQ(ox, dx);
      EXPECT_EQ(oy, dy);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 8);
}

TEST(Species, CollectLeaversMovesCrossers) {
  XpicConfig cfg = XpicConfig::tableII();
  const Grid2D g(cfg, 4, 0);  // 2x2 blocks; rank 0 lower-left
  SpeciesParams p;
  Species s(p, cfg);
  s.addParticle(g.xMax() + 0.1, g.yMin() + 1.0, 0, 0, 0);  // right
  s.addParticle(g.xMin() + 1.0, g.yMin() + 1.0, 0, 0, 0);  // stays
  s.addParticle(g.xMax() + 0.1, g.yMax() + 0.1, 0, 0, 0);  // corner
  std::array<std::vector<double>, 8> out;
  s.collectLeavers(g, out);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(out[static_cast<std::size_t>(Species::dirIndex(1, 0))].size(), 5u);
  EXPECT_EQ(out[static_cast<std::size_t>(Species::dirIndex(1, 1))].size(), 5u);
  // Re-adding restores the particle verbatim.
  Species s2(p, cfg);
  s2.addPacked(out[static_cast<std::size_t>(Species::dirIndex(1, 0))]);
  EXPECT_EQ(s2.count(), 1u);
  EXPECT_NEAR(s2.xs()[0], g.xMax() + 0.1, 1e-12);
}

TEST(Species, CollectLeaversRejectsMultiBlockJumps) {
  const XpicConfig cfg = XpicConfig::tableII();
  const Grid2D g(cfg, 16, 0);  // 4x4 blocks
  SpeciesParams p;
  for (const double x : {g.xMax() + (g.xMax() - g.xMin()) + 0.1, std::nan("")}) {
    Species s(p, cfg);
    s.addParticle(x, g.yMin() + 1.0, 0, 0, 0);
    std::array<std::vector<double>, 8> out;
    EXPECT_THROW(s.collectLeavers(g, out), std::runtime_error) << x;
  }
}

// The scalar collectLeavers loop the lane kernels must reproduce: verdicts,
// throws and swap-with-last compaction, particle by particle.
void refCollectLeavers(RefParticles& p, const Grid2D& g,
                       std::array<std::vector<double>, 8>& out) {
  const int lnx = g.lnx(), lny = g.lny();
  const double gnx = static_cast<double>(lnx) * g.px();
  const double gny = static_cast<double>(lny) * g.py();
  const auto jumped = [&](std::size_t k) {
    return std::runtime_error(
        "xpic: particle at x=" + std::to_string(p.x[k]) +
        ", y=" + std::to_string(p.y[k]) + " jumped more than one block from rank " +
        std::to_string(g.rank()) + " (time step too large for the block size)");
  };
  std::size_t k = 0;
  while (k < p.x.size()) {
    const double cellX = p.x[k] / g.dx();
    const double cellY = p.y[k] / g.dy();
    if (!(cellX > -gnx && cellX < 2 * gnx && cellY > -gny && cellY < 2 * gny)) {
      throw jumped(k);
    }
    const int gi = static_cast<int>(cellX);
    const int gj = static_cast<int>(cellY);
    const int ox = gi / lnx;
    const int oy = gj / lny;
    int dx = ox - g.cx();
    int dy = oy - g.cy();
    if (dx > g.px() / 2) dx -= g.px();
    if (dx < -g.px() / 2) dx += g.px();
    if (dy > g.py() / 2) dy -= g.py();
    if (dy < -g.py() / 2) dy += g.py();
    if (dx < -1 || dx > 1 || dy < -1 || dy > 1) throw jumped(k);
    if (dx == 0 && dy == 0) {
      ++k;
      continue;
    }
    auto& buf = out[static_cast<std::size_t>(Species::dirIndex(dx, dy))];
    buf.insert(buf.end(), {p.x[k], p.y[k], p.u[k], p.v[k], p.w[k]});
    for (std::vector<double>* c : {&p.x, &p.y, &p.u, &p.v, &p.w}) {
      (*c)[k] = c->back();
      c->pop_back();
    }
  }
}

TEST(Species, CollectLeaversMatchesScalarReferenceBitForBit) {
  const XpicConfig cfg = XpicConfig::tableII();
  const std::vector<ParticleKernels> variants = hostKernels();
  int cases = 0;
  // 4x4 blocks: rank 0 sits at x = y = 0 (cx = 0), rank 5 inside, rank 15
  // at x = y = L; a 1-rank grid wraps every leaver home.
  for (const auto& [ranks, rank] : {std::pair{16, 0}, {16, 5}, {16, 15}, {1, 0}}) {
    const Grid2D g(cfg, ranks, rank);
    const double bw = g.xMax() - g.xMin(), bh = g.yMax() - g.yMin();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(rank));
      const std::size_t n = 64 + rng.below(17);
      // One leaver at lane l of batch l, the last particle a leaver (it is
      // swapped into the slot of the leaver before it), the rest drawn.
      const auto leaverAt = [&](std::size_t k) {
        return k == n - 1 || (k < 64 && k % 8 == k / 8);
      };
      RefParticles drawn;
      for (std::size_t k = 0; k < n; ++k) {
        double x = g.xMin() + rng.uniform() * bw;
        double y = g.yMin() + rng.uniform() * bh;
        const std::uint64_t kind = leaverAt(k) ? 1 : rng.below(10);
        if (kind == 1) {  // into a random neighbour block, maybe across x = L
          const int ox = static_cast<int>(rng.below(3)) - 1;
          const int oy = ox == 0 ? 1 - 2 * static_cast<int>(rng.below(2))
                                 : static_cast<int>(rng.below(3)) - 1;
          x = std::fmod(x + ox * bw + cfg.lx, cfg.lx);
          y = std::fmod(y + oy * bh + cfg.ly, cfg.ly);
        } else if (kind == 2) {  // exactly on one of the block's faces
          const std::uint64_t face = rng.below(4);
          if (face == 0) x = g.xMin();
          if (face == 1) x = g.xMax() == cfg.lx ? 0.0 : g.xMax();
          if (face == 2) y = g.yMin();
          if (face == 3) y = g.yMax() == cfg.ly ? 0.0 : g.yMax();
        } else if (kind == 3 && g.cx() == 0) {  // cellX in (-1, 0): home
          x = -rng.uniform() * g.dx();
        }
        drawn.x.push_back(x);
        drawn.y.push_back(y);
        drawn.u.push_back(rng.normal());
        drawn.v.push_back(rng.normal());
        drawn.w.push_back(rng.normal());
      }
      // Every fourth population also holds a particle collectLeavers
      // rejects: NaN, or more than one block away.
      if (seed % 4 == 0) {
        const std::size_t k = rng.below(n);
        if (seed % 8 == 0) {
          drawn.x[k] = std::nan("");
        } else {
          drawn.y[k] = g.yMin() + 2.5 * bh;
        }
      }
      RefParticles ref = drawn;
      std::array<std::vector<double>, 8> refOut;
      std::string refError;
      try {
        refCollectLeavers(ref, g, refOut);
      } catch (const std::runtime_error& e) {
        refError = e.what();
      }
      EXPECT_EQ(refError.empty(), seed % 4 != 0) << refError;
      for (const ParticleKernels kernels : variants) {
        SCOPED_TRACE(::testing::Message()
                     << xpic::kernelsName(kernels) << " ranks=" << ranks
                     << " rank=" << rank << " seed=" << seed);
        Species s(SpeciesParams{}, cfg);
        s.addPacked(drawn.packed());
        std::array<std::vector<double>, 8> out;
        std::string error;
        try {
          s.collectLeavers(g, out, kernels);
        } catch (const std::runtime_error& e) {
          error = e.what();
        }
        EXPECT_EQ(error, refError);
        EXPECT_TRUE(sameBytes(s.packAll(), ref.packed()));
        for (std::size_t d = 0; d < out.size(); ++d) {
          EXPECT_TRUE(sameBytes(out[d], refOut[d])) << "direction " << d;
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 4 * 24 * static_cast<int>(variants.size()));
}

// ---- Full runs ------------------------------------------------------------------------

XpicConfig integrationCfg() {
  XpicConfig cfg = XpicConfig::tiny();
  cfg.steps = 4;
  return cfg;
}

class XpicModes : public ::testing::TestWithParam<xpic::Mode> {};

INSTANTIATE_TEST_SUITE_P(AllModes, XpicModes,
                         ::testing::Values(xpic::Mode::ClusterOnly,
                                           xpic::Mode::BoosterOnly,
                                           xpic::Mode::ClusterBooster));

TEST_P(XpicModes, SingleNodeInvariants) {
  const XpicConfig cfg = integrationCfg();
  const xpic::Report r = xpic::runXpic(GetParam(), 1, cfg);
  // Particle census: every cell seeded ppcReal/nspec per species.
  const long long expected =
      static_cast<long long>(cfg.cells()) * (cfg.ppcReal / cfg.nspec) * cfg.nspec;
  EXPECT_EQ(r.particleCount, expected);
  EXPECT_NEAR(r.netCharge, 0.0, 1e-9);
  EXPECT_GT(r.kineticEnergy, 0.0);
  EXPECT_GE(r.fieldEnergy, 0.0);
  EXPECT_GT(r.fieldsSec, 0.0);
  EXPECT_GT(r.particlesSec, 0.0);
  EXPECT_GT(r.wallSec, 0.0);
  EXPECT_GT(r.cgIterations, 0);
}

TEST_P(XpicModes, MultiNodeConservesParticles) {
  const XpicConfig cfg = integrationCfg();
  for (const int n : {2, 4}) {
    const xpic::Report r = xpic::runXpic(GetParam(), n, cfg);
    const long long expected =
        static_cast<long long>(cfg.cells()) * (cfg.ppcReal / cfg.nspec) * cfg.nspec;
    EXPECT_EQ(r.particleCount, expected) << "n=" << n;
    EXPECT_NEAR(r.netCharge, 0.0, 1e-9);
  }
}

TEST(Xpic, FieldSolverConverges) {
  XpicConfig cfg = integrationCfg();
  cfg.cgTol = 1e-10;
  const xpic::Report r = xpic::runXpic(xpic::Mode::ClusterOnly, 1, cfg);
  // A thermal, quasi-neutral plasma must not blow up in a few steps.
  EXPECT_LT(r.fieldEnergy, r.kineticEnergy);
}

TEST(Xpic, MomentumDriftIsSmallInNeutralPlasma) {
  // No external drive: the total particle momentum should stay close to its
  // (random, O(sqrt(N) vth m w)) initial value.  Compare an evolved run
  // against a zero-step run with identical seeding.
  XpicConfig cfg = integrationCfg();
  cfg.steps = 0;
  const xpic::Report r0 = xpic::runXpic(xpic::Mode::ClusterOnly, 1, cfg);
  cfg.steps = 8;
  const xpic::Report r8 = xpic::runXpic(xpic::Mode::ClusterOnly, 1, cfg);
  EXPECT_LT(std::abs(r8.momentumX - r0.momentumX),
            0.05 * std::max(1.0, std::abs(r0.momentumX)));
}

TEST(Xpic, CbModeUsesBothPartitions) {
  const XpicConfig cfg = integrationCfg();
  const xpic::Report r = xpic::runXpic(xpic::Mode::ClusterBooster, 2, cfg);
  EXPECT_GT(r.fieldsSec, 0.0);     // measured on Cluster ranks
  EXPECT_GT(r.particlesSec, 0.0);  // measured on Booster ranks
  EXPECT_GT(r.auxSec, 0.0);
}

// The inter-module messages carry max(packed arrays, the production
// payload) doubles per rank, whatever buffers the drivers reuse: total
// fabric bytes of a 2+2-node C+B run, pinned for a payload smaller than
// the packed arrays (1 double/cell), the tiny preset's 12 and Table II's
// 260.
TEST(Xpic, InterfacePayloadBytesArePinned) {
  const std::pair<double, double> expected[] = {
      {1.0, 254420.0}, {12.0, 402132.0}, {260.0, 5989076.0}};
  for (const auto& [doublesPerCell, bytes] : expected) {
    XpicConfig cfg = XpicConfig::tiny();
    cfg.interfaceDoublesPerCell = doublesPerCell;
    obs::Tracer tracer;
    tracer.setMetricsOnly(true);
    (void)xpic::runXpic(xpic::Mode::ClusterBooster, 2, cfg,
                        hw::MachineConfig::deepEr(), &tracer);
    EXPECT_EQ(tracer.metrics().value("fabric.bytes"), bytes) << doublesPerCell;
  }
}

}  // namespace
