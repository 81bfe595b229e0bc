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
// compiler from fusing them (DESIGN §3 item 9).  They read and write a
// cell table instead of the padded arrays: one 64-byte row per padded
// cell, holding that cell's value of every array side by side, so a
// stencil corner is one aligned load.  Copying the arrays in and out
// moves bits and changes no sum.

/// One padded cell of a cell table: the cell's E and B (`ex ey ez bx by bz
/// 0 0`) or its moments (`rho jx jy jz chi 0 0 0`).
struct alignas(64) CellRow {
  double v[8];
};

/// The calling thread's cell table, grown to at least `cells` rows.  One
/// table serves both kernels and every species: each kernel call refills
/// it, and no call yields to another process in between.
CellRow* cellTable(std::size_t cells) {
  thread_local std::vector<CellRow> table;
  if (table.size() < cells) table.assign(cells, CellRow{});
  return table.data();
}

/// out[c][l] = in[l][c].  Three rounds of 8 shuffles; the compiler drops
/// those whose outputs go unused.  The shuffles are masked from zero:
/// GCC 12 flags the unmasked forms' undefined source with
/// -Wmaybe-uninitialized.
CBSIM_AVX512_INLINE void transpose8(const __m512d in[8], __m512d out[8]) {
  constexpr __mmask8 all = 0xFF;
  // t[i] (i even) holds rows i, i+1 at columns 0, 2, 4, 6 (one column per
  // 128-bit lane); t[i + 1] the same at columns 1, 3, 5, 7.
  __m512d t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm512_maskz_unpacklo_pd(all, in[i], in[i + 1]);
    t[i + 1] = _mm512_maskz_unpackhi_pd(all, in[i], in[i + 1]);
  }
  // u[0] = [r00 r10 | r04 r14 | r20 r30 | r24 r34] and so on: two columns
  // of four rows each.
  __m512d u[8];
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm512_maskz_shuffle_f64x2(all, t[i], t[i + 2], 0x88);
    u[i + 1] = _mm512_maskz_shuffle_f64x2(all, t[i], t[i + 2], 0xDD);
    u[i + 2] = _mm512_maskz_shuffle_f64x2(all, t[i + 1], t[i + 3], 0x88);
    u[i + 3] = _mm512_maskz_shuffle_f64x2(all, t[i + 1], t[i + 3], 0xDD);
  }
  out[0] = _mm512_maskz_shuffle_f64x2(all, u[0], u[4], 0x88);
  out[4] = _mm512_maskz_shuffle_f64x2(all, u[0], u[4], 0xDD);
  out[2] = _mm512_maskz_shuffle_f64x2(all, u[1], u[5], 0x88);
  out[6] = _mm512_maskz_shuffle_f64x2(all, u[1], u[5], 0xDD);
  out[1] = _mm512_maskz_shuffle_f64x2(all, u[2], u[6], 0x88);
  out[5] = _mm512_maskz_shuffle_f64x2(all, u[2], u[6], 0xDD);
  out[3] = _mm512_maskz_shuffle_f64x2(all, u[3], u[7], 0x88);
  out[7] = _mm512_maskz_shuffle_f64x2(all, u[3], u[7], 0xDD);
}

/// Copies M padded arrays of `cells` values into table rows, zeros after.
template <std::size_t M>
CBSIM_AVX512_INLINE void fillTable(CellRow* t, const double* const (&a)[M],
                                   std::size_t cells) {
  std::size_t c = 0;
  for (; c + 8 <= cells; c += 8) {
    __m512d in[8], out[8];
    for (std::size_t m = 0; m < 8; ++m) {
      in[m] = m < M ? _mm512_loadu_pd(a[m] + c) : _mm512_setzero_pd();
    }
    transpose8(in, out);
    for (std::size_t l = 0; l < 8; ++l) _mm512_store_pd(t[c + l].v, out[l]);
  }
  for (; c < cells; ++c) {
    for (std::size_t m = 0; m < 8; ++m) t[c].v[m] = m < M ? a[m][c] : 0.0;
  }
}

/// Copies table rows back into the M padded arrays fillTable read.
template <std::size_t M>
CBSIM_AVX512_INLINE void drainTable(const CellRow* t, double* const (&a)[M],
                                    std::size_t cells) {
  std::size_t c = 0;
  for (; c + 8 <= cells; c += 8) {
    __m512d in[8], out[8];
    for (std::size_t l = 0; l < 8; ++l) in[l] = _mm512_load_pd(t[c + l].v);
    transpose8(in, out);
    for (std::size_t m = 0; m < M; ++m) _mm512_storeu_pd(a[m] + c, out[m]);
  }
  for (; c < cells; ++c) {
    for (std::size_t m = 0; m < M; ++m) a[m][c] = t[c].v[m];
  }
}

/// kBatch stencils, one per lane: the table row of each lane's base cell
/// and the weights of its four corners, kept in memory because the cell
/// kernels read them one lane at a time.
struct alignas(64) LaneStencils {
  double w[4][kBatch];  ///< (i, j), (i+1, j), (i, j+1), (i+1, j+1)
  long long base[kBatch];
};

/// StencilMap::gather for every value of a table row at lane l's stencil:
/// the same four products, summed in the same order.
CBSIM_AVX512_INLINE __m512d interpolateRow(const CellRow* t,
                                           std::size_t stride,
                                           const LaneStencils& s,
                                           std::size_t l) {
  const CellRow* r = t + s.base[l];
  return _mm512_set1_pd(s.w[0][l]) * _mm512_load_pd(r[0].v) +
         _mm512_set1_pd(s.w[1][l]) * _mm512_load_pd(r[1].v) +
         _mm512_set1_pd(s.w[2][l]) * _mm512_load_pd(r[stride].v) +
         _mm512_set1_pd(s.w[3][l]) * _mm512_load_pd(r[stride + 1].v);
}

/// StencilMap::scatter of a table row of values at one corner: row +=
/// w * values, every value as scalar `a[b] += w * v`.
CBSIM_AVX512_INLINE void scatterRow(CellRow& r, double w, __m512d values) {
  _mm512_store_pd(r.v, _mm512_load_pd(r.v) + _mm512_set1_pd(w) * values);
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
  /// at() for kBatch positions, one per lane, into `s`.  Returns false,
  /// leaving `s` unset, when a lane's stencil leaves the ghost ring; the
  /// caller hands that batch to the scalar kernel, whose at() throws for
  /// the lowest such lane.
  CBSIM_AVX512_INLINE bool at8(__m512d x, __m512d y, LaneStencils& s) const {
    const __m512d gx = x / _mm512_set1_pd(dx_) - _mm512_set1_pd(0.5);
    const __m512d gy = y / _mm512_set1_pd(dy_) - _mm512_set1_pd(0.5);
    const __mmask8 inside =
        _mm512_cmp_pd_mask(gx, _mm512_set1_pd(loX_), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(gx, _mm512_set1_pd(hiX_), _CMP_LT_OQ) &
        _mm512_cmp_pd_mask(gy, _mm512_set1_pd(loY_), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(gy, _mm512_set1_pd(hiY_), _CMP_LT_OQ);
    if (inside != 0xFF) [[unlikely]] return false;
    // floor() is floorToInt() as a double on the guarded range: both give
    // the same integer, and the same +0.0 for gx in [0, 1), since
    // x / dx - 0.5 is never -0.0.
    constexpr int down = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
    const __m512d gi = _mm512_maskz_roundscale_pd(0xFF, gx, down);
    const __m512d gj = _mm512_maskz_roundscale_pd(0xFF, gy, down);
    const __m512d wx = gx - gi;
    const __m512d wy = gy - gj;
    const __m512d one = _mm512_set1_pd(1.0);
    _mm512_store_pd(s.w[0], (one - wx) * (one - wy));
    _mm512_store_pd(s.w[1], wx * (one - wy));
    _mm512_store_pd(s.w[2], (one - wx) * wy);
    _mm512_store_pd(s.w[3], wx * wy);
    // The padded index of at(), in doubles: small integers, so exact.
    const __m512d stride = _mm512_set1_pd(static_cast<double>(stride_));
    const __m512d base = (gj - _mm512_set1_pd(loY_)) * stride +
                         (gi - _mm512_set1_pd(loX_));
    _mm512_store_si512(s.base, _mm512_cvttpd_epi64(base));
    return true;
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
  /// push<kBatch> for the B batches of particles [k, k + B * kBatch), one
  /// particle per lane, their sweeps interleaved, E and B read from the
  /// cell table `t`.  Stores nothing and returns false when a sweep takes
  /// a lane's stencil outside the ghost ring.
  template <std::size_t B>
  CBSIM_AVX512 bool pushBatches(const CellRow* t, std::size_t k) const {
    const __m512d q = _mm512_set1_pd(qdt2m), one = _mm512_set1_pd(1.0),
                  two = _mm512_set1_pd(2.0), h = _mm512_set1_pd(halfDt),
                  d = _mm512_set1_pd(dt);
    const std::size_t stride = map.stride();
    __m512d x0[B], y0[B], u0[B], v0[B], w0[B];
    __m512d xb[B], yb[B], ub[B], vb[B], wb[B];
    for (std::size_t b = 0; b < B; ++b) {
      const std::size_t i = k + b * kBatch;
      xb[b] = x0[b] = _mm512_loadu_pd(x + i);
      yb[b] = y0[b] = _mm512_loadu_pd(y + i);
      ub[b] = u0[b] = _mm512_loadu_pd(u + i);
      vb[b] = v0[b] = _mm512_loadu_pd(v + i);
      wb[b] = w0[b] = _mm512_loadu_pd(w + i);
    }
    for (int it = 0; it < iters; ++it) {
      LaneStencils s[B];
      for (std::size_t b = 0; b < B; ++b) {
        if (!map.at8(xb[b], yb[b], s[b])) return false;
      }
      for (std::size_t b = 0; b < B; ++b) {
        // Lane l's interpolated row, transposed: f[0..5] hold E and B.
        __m512d rows[kBatch], f[kBatch];
        for (std::size_t l = 0; l < kBatch; ++l) {
          rows[l] = interpolateRow(t, stride, s[b], l);
        }
        transpose8(rows, f);
        const __m512d vx = u0[b] + q * f[0];
        const __m512d vy = v0[b] + q * f[1];
        const __m512d vz = w0[b] + q * f[2];
        const __m512d tx = q * f[3], ty = q * f[4], tz = q * f[5];
        const __m512d tsq = tx * tx + ty * ty + tz * tz;
        const __m512d vdt = vx * tx + vy * ty + vz * tz;
        const __m512d inv = one / (one + tsq);
        ub[b] = (vx + (vy * tz - vz * ty) + vdt * tx) * inv;
        vb[b] = (vy + (vz * tx - vx * tz) + vdt * ty) * inv;
        wb[b] = (vz + (vx * ty - vy * tx) + vdt * tz) * inv;
        xb[b] = x0[b] + h * ub[b];
        yb[b] = y0[b] + h * vb[b];
      }
    }
    for (std::size_t b = 0; b < B; ++b) {
      const std::size_t i = k + b * kBatch;
      _mm512_storeu_pd(u + i, two * ub[b] - u0[b]);
      _mm512_storeu_pd(v + i, two * vb[b] - v0[b]);
      _mm512_storeu_pd(w + i, two * wb[b] - w0[b]);
      _mm512_storeu_pd(x + i, wrap8(x0[b] + d * ub[b], lx));
      _mm512_storeu_pd(y + i, wrap8(y0[b] + d * vb[b], ly));
    }
    return true;
  }

  /// push<kBatch> over the whole batches of particles [0, n), two batches
  /// at a time, against a cell table of the `cells` padded E and B values.
  /// Returns the first particle it did not push: the end of the last whole
  /// batch, or the start of the first batch that leaves the ghost ring,
  /// which the scalar kernel then rejects.
  CBSIM_AVX512 std::size_t pushCells(std::size_t n, std::size_t cells) const {
    if (n < kBatch) return 0;
    CellRow* const t = cellTable(cells);
    fillTable(t, {ex, ey, ez, bx, by, bz}, cells);
    std::size_t k = 0;
    for (; k + 2 * kBatch <= n; k += 2 * kBatch) {
      if (pushBatches<2>(t, k)) continue;
      // One batch at a time, so that the first batch to fail is the one
      // the scalar kernel fails in.
      if (!pushBatches<1>(t, k)) return k;
      if (!pushBatches<1>(t, k + kBatch)) return k + kBatch;
    }
    if (k + kBatch <= n && pushBatches<1>(t, k)) k += kBatch;
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
  /// deposit<kBatch> over the whole batches of particles [0, n) into a cell
  /// table of the `cells` padded moment values: each particle adds one
  /// weighted row per corner, in particle order, so every moment cell sums
  /// the scalar kernel's terms in its order.  The table is written back
  /// before returning the first particle it did not deposit: the end of
  /// the last whole batch, or the start of the first batch with a lane
  /// outside the ghost ring, which the scalar kernel then rejects.
  CBSIM_AVX512 std::size_t depositCells(std::size_t n,
                                        std::size_t cells) const {
    if (n < kBatch) return 0;
    CellRow* const t = cellTable(cells);
    fillTable(t, {rho, jx, jy, jz, chi}, cells);
    const __m512d q = _mm512_set1_pd(qw), c = _mm512_set1_pd(chiw),
                  zero = _mm512_setzero_pd();
    const std::size_t stride = map.stride();
    std::size_t k = 0;
    for (; k + kBatch <= n; k += kBatch) {
      LaneStencils s;
      if (!map.at8(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k), s)) break;
      // Row l: the five values particle k + l deposits.
      const __m512d vals[kBatch] = {q,
                                    q * _mm512_loadu_pd(u + k),
                                    q * _mm512_loadu_pd(v + k),
                                    q * _mm512_loadu_pd(w + k),
                                    c, zero, zero, zero};
      __m512d rows[kBatch];
      transpose8(vals, rows);
      for (std::size_t l = 0; l < kBatch; ++l) {
        CellRow* const r = t + s.base[l];
        scatterRow(r[0], s.w[0][l], rows[l]);
        scatterRow(r[1], s.w[1][l], rows[l]);
        scatterRow(r[stride], s.w[2][l], rows[l]);
        scatterRow(r[stride + 1], s.w[3][l], rows[l]);
      }
    }
    drainTable(t, {rho, jx, jy, jz, chi}, cells);
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
  if (kernels == ParticleKernels::avx512) k = m.pushCells(n, f.ex.raw().size());
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
  if (kernels == ParticleKernels::avx512) {
    k = d.depositCells(n, f.rho.raw().size());
  }
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
    // scalar loop's.  A batch that stays whole steps a constant kBatch, so
    // the next batch's test need not wait for this one's count.
    if (kernels == ParticleKernels::avx512 && k + kBatch <= x_.size()) {
      const unsigned stay = home.lanes(x_.data() + k, y_.data() + k);
      if (stay == 0xFF) {
        k += kBatch;
        continue;
      }
      k += static_cast<std::size_t>(std::countr_one(stay));
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
