#include "scr/desc.hpp"

namespace cbsim::scr {

ScrConfig scrConfigFromDesc(desc::Reader& r) {
  ScrConfig c;
  c.localEvery = r.int32At("local_every", c.localEvery);
  c.buddyEvery = r.int32At("buddy_every", c.buddyEvery);
  c.globalEvery = r.int32At("global_every", c.globalEvery);
  c.namEvery = r.int32At("nam_every", c.namEvery);
  c.prefix = r.stringAt("prefix", c.prefix);
  r.finish();
  if (c.localEvery < 0 || c.buddyEvery < 0 || c.globalEvery < 0 ||
      c.namEvery < 0) {
    r.fail("checkpoint cadences must be >= 0 (0 disables a level)");
  }
  return c;
}

desc::Value toDesc(const ScrConfig& c) {
  desc::Value v = desc::Value::object();
  v.set("local_every", desc::Value::integer(c.localEvery));
  v.set("buddy_every", desc::Value::integer(c.buddyEvery));
  v.set("global_every", desc::Value::integer(c.globalEvery));
  v.set("nam_every", desc::Value::integer(c.namEvery));
  v.set("prefix", desc::Value::string(c.prefix));
  return v;
}

}  // namespace cbsim::scr
