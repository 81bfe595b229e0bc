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

XpicConfig xpicConfigFromDesc(desc::Reader& r) {
  if (r.value().isString()) return xpicPreset(r.asString());
  XpicConfig c;
  if (r.has("preset")) c = xpicPreset(r.stringAt("preset"));
  c.nx = r.int32At("nx", c.nx);
  c.ny = r.int32At("ny", c.ny);
  c.lx = r.numberAt("lx", c.lx);
  c.ly = r.numberAt("ly", c.ly);
  c.nspec = r.int32At("nspec", c.nspec);
  c.ppcReal = r.int32At("ppc_real", c.ppcReal);
  c.ppcModeled = r.int32At("ppc_modeled", c.ppcModeled);
  c.vthElectron = r.numberAt("vth_electron", c.vthElectron);
  c.vthIon = r.numberAt("vth_ion", c.vthIon);
  c.massRatio = r.numberAt("mass_ratio", c.massRatio);
  c.driftElectron = r.numberAt("drift_electron", c.driftElectron);
  c.steps = r.int32At("steps", c.steps);
  c.dt = r.numberAt("dt", c.dt);
  c.theta = r.numberAt("theta", c.theta);
  c.cgMaxIter = r.int32At("cg_max_iter", c.cgMaxIter);
  c.cgTol = r.numberAt("cg_tol", c.cgTol);
  c.moverIterations = r.int32At("mover_iterations", c.moverIterations);
  c.outputStagingUs = r.numberAt("output_staging_us", c.outputStagingUs);
  c.historyEvery = r.int32At("history_every", c.historyEvery);
  c.overlapAux = r.boolAt("overlap_aux", c.overlapAux);
  c.interfaceDoublesPerCell =
      r.numberAt("interface_doubles_per_cell", c.interfaceDoublesPerCell);
  c.b0z = r.numberAt("b0z", c.b0z);
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
  return c;
}

desc::Value toDesc(const XpicConfig& c) {
  desc::Value v = desc::Value::object();
  v.set("nx", desc::Value::integer(c.nx));
  v.set("ny", desc::Value::integer(c.ny));
  v.set("lx", desc::Value::number(c.lx));
  v.set("ly", desc::Value::number(c.ly));
  v.set("nspec", desc::Value::integer(c.nspec));
  v.set("ppc_real", desc::Value::integer(c.ppcReal));
  v.set("ppc_modeled", desc::Value::integer(c.ppcModeled));
  v.set("vth_electron", desc::Value::number(c.vthElectron));
  v.set("vth_ion", desc::Value::number(c.vthIon));
  v.set("mass_ratio", desc::Value::number(c.massRatio));
  v.set("drift_electron", desc::Value::number(c.driftElectron));
  v.set("steps", desc::Value::integer(c.steps));
  v.set("dt", desc::Value::number(c.dt));
  v.set("theta", desc::Value::number(c.theta));
  v.set("cg_max_iter", desc::Value::integer(c.cgMaxIter));
  v.set("cg_tol", desc::Value::number(c.cgTol));
  v.set("mover_iterations", desc::Value::integer(c.moverIterations));
  v.set("output_staging_us", desc::Value::number(c.outputStagingUs));
  v.set("history_every", desc::Value::integer(c.historyEvery));
  v.set("overlap_aux", desc::Value::boolean(c.overlapAux));
  v.set("interface_doubles_per_cell",
        desc::Value::number(c.interfaceDoublesPerCell));
  v.set("b0z", desc::Value::number(c.b0z));
  return v;
}

}  // namespace cbsim::xpic
