#include "xpic/desc.hpp"

#include <cmath>
#include <string>

namespace cbsim::xpic {

std::vector<std::string> xpicPresetNames() { return {"table-ii", "tiny"}; }

XpicConfig xpicPreset(const std::string& name) {
  if (name == "table-ii") return XpicConfig::tableII();
  if (name == "tiny") return XpicConfig::tiny();
  throw desc::SchemaError("desc: unknown xpic preset \"" + name +
                          "\" (known: table-ii, tiny)");
}

template <class Io>
void fields(Io& io, XpicConfig& c) {
  io.int32("nx", c.nx);
  io.int32("ny", c.ny);
  io.number("lx", c.lx);
  io.number("ly", c.ly);
  io.int32("nspec", c.nspec);
  io.int32("ppc_real", c.ppcReal);
  io.int32("ppc_modeled", c.ppcModeled);
  io.number("vth_electron", c.vthElectron);
  io.number("vth_ion", c.vthIon);
  io.number("mass_ratio", c.massRatio);
  io.number("drift_electron", c.driftElectron);
  io.int32("steps", c.steps);
  io.number("dt", c.dt);
  io.number("theta", c.theta);
  io.int32("cg_max_iter", c.cgMaxIter);
  io.number("cg_tol", c.cgTol);
  io.int32("mover_iterations", c.moverIterations);
  io.micros("output_staging_us", c.outputStagingUs);
  io.int32("history_every", c.historyEvery);
  io.boolean("overlap_aux", c.overlapAux);
  io.number("interface_doubles_per_cell", c.interfaceDoublesPerCell);
  io.number("b0z", c.b0z);
}

XpicConfig xpicConfigFromDesc(desc::Reader& r) {
  if (r.value().isString()) return xpicPreset(r.asString());
  XpicConfig c;
  if (r.has("preset")) c = xpicPreset(r.stringAt("preset"));
  fields(r, c);
  r.finish();
  if (c.nx <= 0 || c.ny <= 0) r.fail("nx and ny must be positive");
  if (c.ppcReal <= 0 || c.ppcModeled <= 0) {
    r.fail("ppc_real and ppc_modeled must be positive");
  }
  if (c.steps <= 0) r.fail("steps must be positive");
  if (c.nspec < 1) r.fail("nspec must be >= 1");
  if (c.moverIterations < 1) r.fail("mover_iterations must be >= 1");
  const auto requireFinitePositive = [&](const char* key, double v) {
    if (!(std::isfinite(v) && v > 0)) {
      r.fail(std::string(key) + " must be finite and > 0");
    }
  };
  requireFinitePositive("dt", c.dt);
  requireFinitePositive("theta", c.theta);
  requireFinitePositive("lx", c.lx);
  requireFinitePositive("ly", c.ly);
  requireFinitePositive("mass_ratio", c.massRatio);
  if (!(std::isfinite(c.interfaceDoublesPerCell) &&
        c.interfaceDoublesPerCell >= 0)) {
    r.fail("interface_doubles_per_cell must be finite and >= 0");
  }
  if (c.outputStagingUs < 0) r.fail("output_staging_us must be >= 0");
  return c;
}

desc::Value toDesc(const XpicConfig& c) { return desc::write(c); }

}  // namespace cbsim::xpic
