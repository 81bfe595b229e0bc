#pragma once

// One particle species (SoA storage) and its core physics: implicit
// predictor-corrector mover, CIC moment deposition, and block-migration
// support.  These methods are pure numerics — simulated-time accounting is
// layered on top by ParticleSolver.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.hpp"
#include "xpic/config.hpp"
#include "xpic/fields.hpp"
#include "xpic/grid.hpp"

namespace cbsim::xpic {

/// Implementations of Species' particle kernels (move, deposit,
/// collectLeavers).  Every one computes the same bits (DESIGN §3 item 9):
/// `scalar` runs on any host and is the others' fallback and reference;
/// `avx512` pushes 8 particles per AVX-512 F+DQ vector.
enum class ParticleKernels { scalar, avx512 };

/// Whether this host's CPU can run `k`.
[[nodiscard]] bool hostRuns(ParticleKernels k);
/// The fastest kernels this host's CPU runs, chosen once per process: the
/// default of every kernel call.
[[nodiscard]] ParticleKernels hostParticleKernels();
[[nodiscard]] const char* kernelsName(ParticleKernels k);

struct SpeciesParams {
  int id = 0;
  double charge = -1.0;  ///< in units of e
  double mass = 1.0;     ///< in units of m_e
  double vth = 0.1;      ///< thermal velocity (c units)
  double driftX = 0.0;
  int perCell = 6;       ///< real macro-particles initialized per cell
};

class Species {
 public:
  Species(SpeciesParams p, const XpicConfig& cfg);

  [[nodiscard]] const SpeciesParams& params() const { return p_; }
  [[nodiscard]] std::size_t count() const { return x_.size(); }
  /// Statistical weight: each macro-particle represents weight/dV density.
  [[nodiscard]] double weight() const { return weight_; }

  /// Uniform lattice positions + Maxwellian velocities in the local block.
  void initThermal(const Grid2D& g, sim::Rng& rng);

  /// Implicit moment mover (predictor-corrector, cfg.moverIterations
  /// sweeps) against E, B (ghosts must be valid).  Applies the global
  /// periodic wrap; block ownership is restored by collectLeavers().
  /// Throws std::runtime_error when a sweep's position takes the bilinear
  /// stencil outside the ghost ring (a time step beyond the CFL limit, or
  /// non-finite fields).  Every kernel call throws std::invalid_argument
  /// for `kernels` the host cannot run.
  void move(const FieldArrays& f, const Grid2D& g,
            ParticleKernels kernels = hostParticleKernels());

  /// CIC deposition of rho, J, and the implicit susceptibility chi into
  /// the padded arrays (ghost contributions included; caller runs the
  /// reverse halo afterwards).  Same ghost-ring check as move().
  void deposit(FieldArrays& f, const Grid2D& g,
               ParticleKernels kernels = hostParticleKernels()) const;

  /// Removes particles that left the local block and packs them as
  /// [x y u v w]* per direction (8 neighbour directions, index
  /// dir = (dy+1)*3 + (dx+1) skipping the centre).  Throws
  /// std::runtime_error for a particle more than one block away.
  void collectLeavers(const Grid2D& g, std::array<std::vector<double>, 8>& out,
                      ParticleKernels kernels = hostParticleKernels());

  /// Appends packed particles produced by collectLeavers on another rank.
  void addPacked(std::span<const double> data);

  /// Serializes every particle as [x y u v w]* (checkpoint payload).
  [[nodiscard]] std::vector<double> packAll() const;
  /// Replaces the population with a packAll() payload (checkpoint restore).
  void restoreFrom(std::span<const double> data);

  /// Direction index helpers for the migration exchange.
  static int dirIndex(int dx, int dy);
  static std::pair<int, int> dirOffset(int dir);

  // ---- Diagnostics ----------------------------------------------------------
  [[nodiscard]] double kineticEnergy() const;  ///< sum 1/2 m w v^2
  [[nodiscard]] double momentum(int axis) const;
  [[nodiscard]] double chargeTotal() const { return p_.charge * weight_ * count(); }

  // Direct access for tests / examples.
  [[nodiscard]] std::span<const double> xs() const { return x_; }
  [[nodiscard]] std::span<const double> ys() const { return y_; }
  [[nodiscard]] std::span<const double> us() const { return u_; }
  void addParticle(double x, double y, double u, double v, double w);

 private:
  SpeciesParams p_;
  double dt_, theta_;
  int iters_ = 3;
  double weight_, invDV_;
  std::vector<double> x_, y_, u_, v_, w_;
};

/// Bilinear interpolation of a cell-centered field at (x, y); the grid's
/// ghost ring must be valid.  Same ghost-ring check as Species::move().
[[nodiscard]] double interpolate(const Field2D& f, const Grid2D& g, double x,
                                 double y);

}  // namespace cbsim::xpic
