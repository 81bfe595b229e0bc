#include "xpic/species.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

// The AVX-512 kernels carry their ISA in target attributes, function by
// function, so this file still compiles for baseline x86-64 and the choice
// is made at run time (hostParticleKernels).  GCC does not pass a target
// attribute on to lambdas: helpers are always_inline functions instead.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define CBSIM_AVX512 __attribute__((target("avx512f,avx512dq")))
#define CBSIM_AVX512_INLINE CBSIM_AVX512 __attribute__((always_inline)) inline
#endif

namespace cbsim::xpic {

namespace {

/// Particles pushed or deposited together.  One mover sweep of one
/// particle is a serial chain (divide, floor, gather, rotate, next
/// position); interleaving a batch of independent chains lets the CPU
/// overlap them.  A population's tail runs the same code one particle at a
/// time, so every particle sees exactly the same arithmetic.
constexpr std::size_t kBatch = 8;

/// Bilinear (CIC) stencil of one position: flat padded index of the base
/// cell (i, j) and the weights of (i, j), (i+1, j), (i, j+1), (i+1, j+1).
struct Stencil {
  std::size_t base;
  double w00, w10, w01, w11;
};

#ifdef CBSIM_AVX512
// Lane kernels: kBatch particles per vector, each lane running the scalar
// code's IEEE operations in the same order.  Their vector expressions
// repeat the scalar ones operand for operand; -ffp-contract=off keeps the
// compiler from fusing them (DESIGN §3 item 9).

/// kBatch stencils, one per lane: the padded indices of the four corners
/// and their weights.
struct Stencil8 {
  __m512i i00, i10, i01, i11;
  __m512d w00, w10, w01, w11;
};

/// StencilMap::floorToInt lane by lane, as doubles: truncation, then one
/// step down where that rounded up.
CBSIM_AVX512_INLINE __m512d floor8(__m512d v) {
  const __m512d t = _mm512_cvtepi64_pd(_mm512_cvttpd_epi64(v));
  return _mm512_mask_sub_pd(t, _mm512_cmp_pd_mask(v, t, _CMP_LT_OQ), t,
                            _mm512_set1_pd(1.0));
}

/// StencilMap::gather lane by lane.
CBSIM_AVX512_INLINE __m512d gather8(const double* a, const Stencil8& s) {
  // Masked gathers from zero: GCC 12 flags the unmasked form's source
  // operand with -Wmaybe-uninitialized.
  const __m512d z = _mm512_setzero_pd();
  const __m512d a00 = _mm512_mask_i64gather_pd(z, 0xFF, s.i00, a, 8);
  const __m512d a10 = _mm512_mask_i64gather_pd(z, 0xFF, s.i10, a, 8);
  const __m512d a01 = _mm512_mask_i64gather_pd(z, 0xFF, s.i01, a, 8);
  const __m512d a11 = _mm512_mask_i64gather_pd(z, 0xFF, s.i11, a, 8);
  return s.w00 * a00 + s.w10 * a10 + s.w01 * a01 + s.w11 * a11;
}

/// wrap() lane by lane.
CBSIM_AVX512_INLINE __m512d wrap8(__m512d v, double period) {
  const __m512d p = _mm512_set1_pd(period);
  const __mmask8 above = _mm512_cmp_pd_mask(v, p, _CMP_GE_OQ);
  const __mmask8 below = _mm512_mask_cmp_pd_mask(
      static_cast<__mmask8>(~above), v, _mm512_setzero_pd(), _CMP_LT_OQ);
  return _mm512_mask_add_pd(_mm512_mask_sub_pd(v, above, v, p), below, v, p);
}
#endif

/// Stencil geometry of one rank's padded block.
class StencilMap {
 public:
  explicit StencilMap(const Grid2D& g)
      : g_(g),
        dx_(g.dx()),
        dy_(g.dy()),
        stride_(static_cast<std::size_t>(g.lnx()) + 2),
        loX_(g.x0() - 1),
        hiX_(g.x0() + g.lnx()),
        loY_(g.y0() - 1),
        hiY_(g.y0() + g.lny()) {}

  /// The base cell must lie in [0, lnx] x [0, lny] (padded), i.e. the
  /// whole stencil inside the ghost ring; throws otherwise.
  [[nodiscard]] Stencil at(double x, double y) const {
    const double gx = x / dx_ - 0.5;
    const double gy = y / dy_ - 0.5;
    // Checked as doubles, before any int conversion: NaN and inf fail too.
    if (!(gx >= loX_ && gx < hiX_ && gy >= loY_ && gy < hiY_)) [[unlikely]] {
      leftGhostRing(x, y);
    }
    const int gi = floorToInt(gx);
    const int gj = floorToInt(gy);
    const double wx = gx - gi;
    const double wy = gy - gj;
    return {static_cast<std::size_t>(gj - g_.y0() + 1) * stride_ +
                static_cast<std::size_t>(gi - g_.x0() + 1),
            (1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy};
  }

#ifdef CBSIM_AVX512
  /// at() for kBatch positions, one per lane.  When a lane leaves the ghost
  /// ring, at() re-runs over the lanes in order and throws for the first.
  CBSIM_AVX512_INLINE Stencil8 at8(__m512d x, __m512d y) const {
    const __m512d gx = x / _mm512_set1_pd(dx_) - _mm512_set1_pd(0.5);
    const __m512d gy = y / _mm512_set1_pd(dy_) - _mm512_set1_pd(0.5);
    const __mmask8 inside =
        _mm512_cmp_pd_mask(gx, _mm512_set1_pd(loX_), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(gx, _mm512_set1_pd(hiX_), _CMP_LT_OQ) &
        _mm512_cmp_pd_mask(gy, _mm512_set1_pd(loY_), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(gy, _mm512_set1_pd(hiY_), _CMP_LT_OQ);
    if (inside != 0xFF) [[unlikely]] {
      double xs[kBatch], ys[kBatch];
      _mm512_storeu_pd(xs, x);
      _mm512_storeu_pd(ys, y);
      for (std::size_t l = 0; l < kBatch; ++l) (void)at(xs[l], ys[l]);
    }
    const __m512d gi = floor8(gx);
    const __m512d gj = floor8(gy);
    const __m512d wx = gx - gi;
    const __m512d wy = gy - gj;
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i stride = _mm512_set1_epi64(static_cast<long long>(stride_));
    const __m512i base =
        (_mm512_cvttpd_epi64(gj) - _mm512_set1_epi64(g_.y0()) + one) * stride +
        (_mm512_cvttpd_epi64(gi) - _mm512_set1_epi64(g_.x0()) + one);
    const __m512d oneD = _mm512_set1_pd(1.0);
    return {base, base + one, base + stride, base + stride + one,
            (oneD - wx) * (oneD - wy), wx * (oneD - wy), (oneD - wx) * wy,
            wx * wy};
  }
#endif

  [[nodiscard]] std::size_t stride() const { return stride_; }

  /// Bilinear interpolation of one padded field array at a stencil.
  [[nodiscard]] double gather(const double* a, const Stencil& s) const {
    return s.w00 * a[s.base] + s.w10 * a[s.base + 1] +
           s.w01 * a[s.base + stride_] + s.w11 * a[s.base + stride_ + 1];
  }

  /// CIC deposit of `v` into one padded moment array at a stencil.
  void scatter(double* a, const Stencil& s, double v) const {
    a[s.base] += s.w00 * v;
    a[s.base + 1] += s.w10 * v;
    a[s.base + stride_] += s.w01 * v;
    a[s.base + stride_ + 1] += s.w11 * v;
  }

 private:
  /// floor() for the guarded range (gx >= -1): truncation, then one step
  /// down for negative non-integers — the same integer, without a libm call.
  static int floorToInt(double v) {
    const int t = static_cast<int>(v);
    return t - (v < t ? 1 : 0);
  }

  [[noreturn]] void leftGhostRing(double x, double y) const {
    throw std::runtime_error(
        "xpic: particle left the ghost ring of rank " +
        std::to_string(g_.rank()) + "'s block at x=" + std::to_string(x) +
        ", y=" + std::to_string(y) +
        " (time step too large for the cell size, or non-finite fields)");
  }

  const Grid2D& g_;
  double dx_, dy_;
  std::size_t stride_;
  double loX_, hiX_, loY_, hiY_;
};

double wrap(double v, double period) {
  if (v >= period) return v - period;
  if (v < 0) return v + period;
  return v;
}

/// One Species::move call: constants, field views and particle arrays.
struct Mover {
  const StencilMap& map;
  const double *ex, *ey, *ez, *bx, *by, *bz;
  double *x, *y, *u, *v, *w;
  double qdt2m, dt, halfDt, lx, ly;
  int iters;

  /// Pushes particles [k, k + W) with their sweeps interleaved.
  template <std::size_t W>
  void push(std::size_t k) const {
    double xb[W], yb[W], ub[W], vb[W], wb[W];
    for (std::size_t l = 0; l < W; ++l) {
      xb[l] = x[k + l];
      yb[l] = y[k + l];
      ub[l] = u[k + l];
      vb[l] = v[k + l];
      wb[l] = w[k + l];
    }
    for (int it = 0; it < iters; ++it) {
      Stencil s[W];
      for (std::size_t l = 0; l < W; ++l) s[l] = map.at(xb[l], yb[l]);
      for (std::size_t l = 0; l < W; ++l) {
        const double fex = map.gather(ex, s[l]), fey = map.gather(ey, s[l]),
                     fez = map.gather(ez, s[l]);
        const double fbx = map.gather(bx, s[l]), fby = map.gather(by, s[l]),
                     fbz = map.gather(bz, s[l]);
        // Exact solution of v~ = v' + v~ x t  with v' = v^n + qdt/2m E,
        // t = qdt/2m B (the implicit-moment rotation).
        const double vx = u[k + l] + qdt2m * fex;
        const double vy = v[k + l] + qdt2m * fey;
        const double vz = w[k + l] + qdt2m * fez;
        const double tx = qdt2m * fbx, ty = qdt2m * fby, tz = qdt2m * fbz;
        const double tsq = tx * tx + ty * ty + tz * tz;
        const double vdt = vx * tx + vy * ty + vz * tz;
        const double inv = 1.0 / (1.0 + tsq);
        ub[l] = (vx + (vy * tz - vz * ty) + vdt * tx) * inv;
        vb[l] = (vy + (vz * tx - vx * tz) + vdt * ty) * inv;
        wb[l] = (vz + (vx * ty - vy * tx) + vdt * tz) * inv;
        // Half-step position for the next field gather.
        xb[l] = x[k + l] + halfDt * ub[l];
        yb[l] = y[k + l] + halfDt * vb[l];
      }
    }
    for (std::size_t l = 0; l < W; ++l) {
      u[k + l] = 2.0 * ub[l] - u[k + l];
      v[k + l] = 2.0 * vb[l] - v[k + l];
      w[k + l] = 2.0 * wb[l] - w[k + l];
      x[k + l] = wrap(x[k + l] + dt * ub[l], lx);
      y[k + l] = wrap(y[k + l] + dt * vb[l], ly);
    }
  }

#ifdef CBSIM_AVX512
  /// push<kBatch> over the whole batches of particles [0, n), one particle
  /// per lane; returns how many particles it pushed.
  CBSIM_AVX512 std::size_t pushLanes(std::size_t n) const {
    const __m512d q = _mm512_set1_pd(qdt2m), one = _mm512_set1_pd(1.0),
                  two = _mm512_set1_pd(2.0), h = _mm512_set1_pd(halfDt),
                  d = _mm512_set1_pd(dt);
    std::size_t k = 0;
    for (; k + kBatch <= n; k += kBatch) {
      const __m512d x0 = _mm512_loadu_pd(x + k), y0 = _mm512_loadu_pd(y + k);
      const __m512d u0 = _mm512_loadu_pd(u + k), v0 = _mm512_loadu_pd(v + k),
                    w0 = _mm512_loadu_pd(w + k);
      __m512d xb = x0, yb = y0, ub = u0, vb = v0, wb = w0;
      for (int it = 0; it < iters; ++it) {
        const Stencil8 s = map.at8(xb, yb);
        const __m512d fex = gather8(ex, s), fey = gather8(ey, s),
                      fez = gather8(ez, s);
        const __m512d fbx = gather8(bx, s), fby = gather8(by, s),
                      fbz = gather8(bz, s);
        const __m512d vx = u0 + q * fex;
        const __m512d vy = v0 + q * fey;
        const __m512d vz = w0 + q * fez;
        const __m512d tx = q * fbx, ty = q * fby, tz = q * fbz;
        const __m512d tsq = tx * tx + ty * ty + tz * tz;
        const __m512d vdt = vx * tx + vy * ty + vz * tz;
        const __m512d inv = one / (one + tsq);
        ub = (vx + (vy * tz - vz * ty) + vdt * tx) * inv;
        vb = (vy + (vz * tx - vx * tz) + vdt * ty) * inv;
        wb = (vz + (vx * ty - vy * tx) + vdt * tz) * inv;
        xb = x0 + h * ub;
        yb = y0 + h * vb;
      }
      _mm512_storeu_pd(u + k, two * ub - u0);
      _mm512_storeu_pd(v + k, two * vb - v0);
      _mm512_storeu_pd(w + k, two * wb - w0);
      _mm512_storeu_pd(x + k, wrap8(x0 + d * ub, lx));
      _mm512_storeu_pd(y + k, wrap8(y0 + d * vb, ly));
    }
    return k;
  }
#endif
};

/// One Species::deposit call: constants, moment views and particle arrays.
struct Depositor {
  const StencilMap& map;
  double *rho, *jx, *jy, *jz, *chi;
  const double *x, *y, *u, *v, *w;
  double qw, chiw;

  /// Deposits particles [k, k + W) in order, their stencils computed first.
  template <std::size_t W>
  void deposit(std::size_t k) const {
    Stencil s[W];
    for (std::size_t l = 0; l < W; ++l) s[l] = map.at(x[k + l], y[k + l]);
    for (std::size_t l = 0; l < W; ++l) {
      map.scatter(rho, s[l], qw);
      map.scatter(jx, s[l], qw * u[k + l]);
      map.scatter(jy, s[l], qw * v[k + l]);
      map.scatter(jz, s[l], qw * w[k + l]);
      map.scatter(chi, s[l], chiw);
    }
  }

#ifdef CBSIM_AVX512
  /// deposit<kBatch> over the whole batches of particles [0, n): stencils
  /// and weight x value products in lanes, the adds into the moment arrays
  /// scalar, in particle order.  Returns how many particles it deposited.
  CBSIM_AVX512 std::size_t depositLanes(std::size_t n) const {
    const __m512d q = _mm512_set1_pd(qw), c = _mm512_set1_pd(chiw);
    double* const moments[5] = {rho, jx, jy, jz, chi};
    const std::size_t stride = map.stride();
    std::size_t k = 0;
    for (; k + kBatch <= n; k += kBatch) {
      const Stencil8 s =
          map.at8(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k));
      const __m512d vals[5] = {q, q * _mm512_loadu_pd(u + k),
                               q * _mm512_loadu_pd(v + k),
                               q * _mm512_loadu_pd(w + k), c};
      // terms[m][c][l]: corner c's share of moment m from particle k + l.
      alignas(64) double terms[5][4][kBatch];
      for (std::size_t m = 0; m < 5; ++m) {
        _mm512_store_pd(terms[m][0], s.w00 * vals[m]);
        _mm512_store_pd(terms[m][1], s.w10 * vals[m]);
        _mm512_store_pd(terms[m][2], s.w01 * vals[m]);
        _mm512_store_pd(terms[m][3], s.w11 * vals[m]);
      }
      alignas(64) long long base[kBatch];
      _mm512_store_si512(base, s.i00);
      for (std::size_t l = 0; l < kBatch; ++l) {
        const auto b = static_cast<std::size_t>(base[l]);
        for (std::size_t m = 0; m < 5; ++m) {
          double* const a = moments[m];
          a[b] += terms[m][0][l];
          a[b + 1] += terms[m][1][l];
          a[b + stride] += terms[m][2][l];
          a[b + stride + 1] += terms[m][3][l];
        }
      }
    }
    return k;
  }
#endif
};

#ifdef CBSIM_AVX512
/// One rank's block in cell coordinates, [x0, x1) x [y0, y1).
struct HomeBlock {
  double dx, dy, x0, x1, y0, y1;

  /// Bit l set when particle l of (xs, ys) has its cell coordinates inside
  /// the block, which implies collectLeavers' "stays" verdict.
  CBSIM_AVX512 unsigned lanes(const double* xs, const double* ys) const {
    const __m512d cellX = _mm512_loadu_pd(xs) / _mm512_set1_pd(dx);
    const __m512d cellY = _mm512_loadu_pd(ys) / _mm512_set1_pd(dy);
    return _mm512_cmp_pd_mask(cellX, _mm512_set1_pd(x0), _CMP_GE_OQ) &
           _mm512_cmp_pd_mask(cellX, _mm512_set1_pd(x1), _CMP_LT_OQ) &
           _mm512_cmp_pd_mask(cellY, _mm512_set1_pd(y0), _CMP_GE_OQ) &
           _mm512_cmp_pd_mask(cellY, _mm512_set1_pd(y1), _CMP_LT_OQ);
  }
};
#endif

void requireHostRuns(ParticleKernels k) {
  if (!hostRuns(k)) {
    throw std::invalid_argument(
        std::string("xpic: this host's CPU cannot run the ") + kernelsName(k) +
        " particle kernels");
  }
}

}  // namespace

bool hostRuns(ParticleKernels k) {
#ifdef CBSIM_AVX512
  static const bool avx512 = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512dq");
#else
  constexpr bool avx512 = false;
#endif
  return k == ParticleKernels::scalar || avx512;
}

ParticleKernels hostParticleKernels() {
  return hostRuns(ParticleKernels::avx512) ? ParticleKernels::avx512
                                           : ParticleKernels::scalar;
}

const char* kernelsName(ParticleKernels k) {
  return k == ParticleKernels::avx512 ? "avx512" : "scalar";
}

double interpolate(const Field2D& f, const Grid2D& g, double x, double y) {
  const StencilMap map(g);
  return map.gather(f.raw().data(), map.at(x, y));
}

Species::Species(SpeciesParams p, const XpicConfig& cfg)
    : p_(p),
      dt_(cfg.dt),
      theta_(cfg.theta),
      iters_(std::max(1, cfg.moverIterations)),
      weight_(cfg.dx() * cfg.dy() / p.perCell),
      invDV_(1.0 / (cfg.dx() * cfg.dy())) {}

void Species::initThermal(const Grid2D& g, sim::Rng& rng) {
  const std::size_t n =
      static_cast<std::size_t>(g.lnx()) * static_cast<std::size_t>(g.lny()) *
      static_cast<std::size_t>(p_.perCell);
  x_.reserve(n);
  y_.reserve(n);
  u_.reserve(n);
  v_.reserve(n);
  w_.reserve(n);
  // The base seed comes from the caller; each cell re-seeds from its
  // GLOBAL index, so the initial plasma state is identical for every
  // domain decomposition — the property the multi-rank consistency tests
  // rely on.
  sim::Rng base = rng;
  const std::uint64_t baseSeed = base.next();
  const int gnx = g.lnx() * g.px();
  for (int j = 0; j < g.lny(); ++j) {
    for (int i = 0; i < g.lnx(); ++i) {
      const std::uint64_t cellId =
          static_cast<std::uint64_t>(g.y0() + j) * static_cast<std::uint64_t>(gnx) +
          static_cast<std::uint64_t>(g.x0() + i);
      sim::Rng cellRng(baseSeed ^ (0x9e3779b97f4a7c15ULL * (cellId + 1)));
      for (int k = 0; k < p_.perCell; ++k) {
        // Jittered sub-cell lattice: uniform density without clumping.
        const double fx = (k % 2 + cellRng.uniform()) / 2.0;
        const double fy = (k / 2 % 2 + cellRng.uniform()) / 2.0;
        addParticle(g.xMin() + (i + fx) * g.dx(), g.yMin() + (j + fy) * g.dy(),
                    p_.driftX + p_.vth * cellRng.normal(),
                    p_.vth * cellRng.normal(), p_.vth * cellRng.normal());
      }
    }
  }
}

void Species::addParticle(double x, double y, double u, double v, double w) {
  x_.push_back(x);
  y_.push_back(y);
  u_.push_back(u);
  v_.push_back(v);
  w_.push_back(w);
}

void Species::move(const FieldArrays& f, const Grid2D& g,
                   ParticleKernels kernels) {
  requireHostRuns(kernels);
  const StencilMap map(g);
  const Mover m{map,
                f.ex.raw().data(), f.ey.raw().data(), f.ez.raw().data(),
                f.bx.raw().data(), f.by.raw().data(), f.bz.raw().data(),
                x_.data(), y_.data(), u_.data(), v_.data(), w_.data(),
                p_.charge * dt_ / (2.0 * p_.mass), dt_, 0.5 * dt_,
                g.lxGlobal(), g.lyGlobal(), iters_};
  const std::size_t n = x_.size();
  std::size_t k = 0;
#ifdef CBSIM_AVX512
  if (kernels == ParticleKernels::avx512) k = m.pushLanes(n);
#endif
  for (; k + kBatch <= n; k += kBatch) m.push<kBatch>(k);
  for (; k < n; ++k) m.push<1>(k);
}

void Species::deposit(FieldArrays& f, const Grid2D& g,
                      ParticleKernels kernels) const {
  requireHostRuns(kernels);
  const StencilMap map(g);
  // Implicit susceptibility: chi = sum_s omega_ps^2 (theta dt)^2 / 2,
  // deposited per particle like the density.
  const double chiw = p_.charge * p_.charge / p_.mass * weight_ * invDV_ *
                      0.5 * (theta_ * dt_) * (theta_ * dt_);
  const Depositor d{map,
                    f.rho.raw().data(), f.jx.raw().data(), f.jy.raw().data(),
                    f.jz.raw().data(), f.chi.raw().data(),
                    x_.data(), y_.data(), u_.data(), v_.data(), w_.data(),
                    p_.charge * weight_ * invDV_, chiw};
  const std::size_t n = x_.size();
  std::size_t k = 0;
#ifdef CBSIM_AVX512
  if (kernels == ParticleKernels::avx512) k = d.depositLanes(n);
#endif
  for (; k + kBatch <= n; k += kBatch) d.deposit<kBatch>(k);
  for (; k < n; ++k) d.deposit<1>(k);
}

int Species::dirIndex(int dx, int dy) {
  assert(dx != 0 || dy != 0);
  const int raw = (dy + 1) * 3 + (dx + 1);
  return raw > 4 ? raw - 1 : raw;  // skip the (0,0) centre slot
}

std::pair<int, int> Species::dirOffset(int dir) {
  const int raw = dir >= 4 ? dir + 1 : dir;
  return {raw % 3 - 1, raw / 3 - 1};
}

void Species::collectLeavers(const Grid2D& g,
                             std::array<std::vector<double>, 8>& out,
                             ParticleKernels kernels) {
  requireHostRuns(kernels);
  const int lnx = g.lnx(), lny = g.lny();
  const double gnx = static_cast<double>(lnx) * g.px();
  const double gny = static_cast<double>(lny) * g.py();
  const auto jumped = [&](std::size_t k) {
    return std::runtime_error(
        "xpic: particle at x=" + std::to_string(x_[k]) +
        ", y=" + std::to_string(y_[k]) + " jumped more than one block from rank " +
        std::to_string(g.rank()) + " (time step too large for the block size)");
  };
#ifdef CBSIM_AVX512
  const HomeBlock home{g.dx(),
                       g.dy(),
                       static_cast<double>(g.cx() * lnx),
                       static_cast<double>((g.cx() + 1) * lnx),
                       static_cast<double>(g.cy() * lny),
                       static_cast<double>((g.cy() + 1) * lny)};
#endif
  std::size_t k = 0;
  while (k < x_.size()) {
#ifdef CBSIM_AVX512
    // Skips the batch's leading particles that stay; the first other one
    // takes the scalar path below, so every verdict, throw and swap is the
    // scalar loop's.
    if (kernels == ParticleKernels::avx512 && k + kBatch <= x_.size()) {
      const int stay =
          std::countr_one(home.lanes(x_.data() + k, y_.data() + k));
      k += static_cast<std::size_t>(stay);
      if (stay == static_cast<int>(kBatch)) continue;
    }
#endif
    const double cellX = x_[k] / g.dx();
    const double cellY = y_[k] / g.dy();
    // move() wraps positions into the domain; a coordinate beyond one
    // period (or NaN) cannot belong to a neighbour.  Checked as doubles so
    // the int conversions below are always defined.
    if (!(cellX > -gnx && cellX < 2 * gnx && cellY > -gny && cellY < 2 * gny)) {
      throw jumped(k);
    }
    const int gi = static_cast<int>(cellX);
    const int gj = static_cast<int>(cellY);
    const int ox = gi / lnx;  // owning block column
    const int oy = gj / lny;
    int dx = ox - g.cx();
    int dy = oy - g.cy();
    // Shortest periodic block distance.
    if (dx > g.px() / 2) dx -= g.px();
    if (dx < -g.px() / 2) dx += g.px();
    if (dy > g.py() / 2) dy -= g.py();
    if (dy < -g.py() / 2) dy += g.py();
    if (dx < -1 || dx > 1 || dy < -1 || dy > 1) throw jumped(k);
    if (dx == 0 && dy == 0) {
      ++k;
      continue;
    }
    auto& buf = out[static_cast<std::size_t>(dirIndex(dx, dy))];
    buf.insert(buf.end(), {x_[k], y_[k], u_[k], v_[k], w_[k]});
    x_[k] = x_.back(); x_.pop_back();
    y_[k] = y_.back(); y_.pop_back();
    u_[k] = u_.back(); u_.pop_back();
    v_[k] = v_.back(); v_.pop_back();
    w_[k] = w_.back(); w_.pop_back();
  }
}

void Species::addPacked(std::span<const double> data) {
  assert(data.size() % 5 == 0);
  for (std::size_t k = 0; k + 4 < data.size(); k += 5) {
    addParticle(data[k], data[k + 1], data[k + 2], data[k + 3], data[k + 4]);
  }
}

std::vector<double> Species::packAll() const {
  std::vector<double> out;
  out.reserve(5 * x_.size());
  for (std::size_t k = 0; k < x_.size(); ++k) {
    out.insert(out.end(), {x_[k], y_[k], u_[k], v_[k], w_[k]});
  }
  return out;
}

void Species::restoreFrom(std::span<const double> data) {
  x_.clear();
  y_.clear();
  u_.clear();
  v_.clear();
  w_.clear();
  addPacked(data);
}

double Species::kineticEnergy() const {
  double s = 0;
  for (std::size_t k = 0; k < x_.size(); ++k) {
    s += u_[k] * u_[k] + v_[k] * v_[k] + w_[k] * w_[k];
  }
  return 0.5 * p_.mass * weight_ * s;
}

double Species::momentum(int axis) const {
  const std::vector<double>& comp = axis == 0 ? u_ : (axis == 1 ? v_ : w_);
  double s = 0;
  for (const double c : comp) s += c;
  return p_.mass * weight_ * s;
}

}  // namespace cbsim::xpic
