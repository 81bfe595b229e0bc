// xPic tests: decomposition and grid math, interpolation/deposition,
// a bitwise oracle for the mover and deposit kernels and their ghost-ring
// guard, single-particle physics (gyromotion, uniform-field acceleration),
// migration bookkeeping, halo exchange across ranks, field-solver
// convergence, the inter-module payload size, and full-run invariants in
// all three execution modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
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
// reproduce them bit for bit: the same IEEE operations per particle, and
// every moment cell accumulated in particle order.

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
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
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
  XpicConfig cfg = XpicConfig::tiny();
  int cases = 0;
  for (const int ranks : {1, 4}) {
    // Rank 3 of a 2x2 decomposition: x0, y0 != 0, touching x = L, y = L.
    const Grid2D g(cfg, ranks, ranks - 1);
    for (const int iters : {1, 3}) {
      cfg.moverIterations = iters;
      for (const double charge : {-1.0, 1.0}) {
        for (const std::size_t n : {1u, 7u, 8u, 9u, 1003u}) {
          SCOPED_TRACE(::testing::Message()
                       << "ranks=" << ranks << " iters=" << iters
                       << " charge=" << charge << " n=" << n);
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
          s.deposit(f, g);
          refDeposit(ref, sp, cfg, s.weight(), fRef, g);
          for (std::size_t m = 0; m < 5; ++m) {
            EXPECT_TRUE(sameBytes(f.momentFields()[m]->raw(),
                                  fRef.momentFields()[m]->raw()))
                << "moment " << m;
          }
          s.move(f, g);
          refMove(ref, sp, cfg, fRef, g);
          EXPECT_TRUE(sameBytes(s.packAll(), ref.packed()));
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 40);
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
