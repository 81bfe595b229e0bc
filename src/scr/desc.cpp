#include "scr/desc.hpp"

namespace cbsim::scr {

template <class Io>
void fields(Io& io, ScrConfig& c) {
  io.int32("local_every", c.localEvery);
  io.int32("buddy_every", c.buddyEvery);
  io.int32("global_every", c.globalEvery);
  io.int32("nam_every", c.namEvery);
  io.string("prefix", c.prefix);
}

ScrConfig scrConfigFromDesc(desc::Reader& r) {
  ScrConfig c;
  fields(r, c);
  r.finish();
  if (c.localEvery < 0 || c.buddyEvery < 0 || c.globalEvery < 0 ||
      c.namEvery < 0) {
    r.fail("checkpoint cadences must be >= 0 (0 disables a level)");
  }
  return c;
}

desc::Value toDesc(const ScrConfig& c) { return desc::write(c); }

}  // namespace cbsim::scr
