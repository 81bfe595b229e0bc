#include "pmpi/desc.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace cbsim::pmpi {

template <class Io>
void fields(Io& io, ProtocolParams& p) {
  io.unsignedInt("eager_threshold", p.eagerThreshold);
  io.number("header_bytes", p.headerBytes);
  io.number("ctrl_msg_bytes", p.ctrlMsgBytes);
  io.time("spawn_base_us", p.spawnBase, desc::kPsPerUs);
  io.time("spawn_per_proc_us", p.spawnPerProc, desc::kPsPerUs);
  io.boolean("reliable", p.reliable);
  io.number("ack_bytes", p.ackBytes);
  io.time("retransmit_timeout_us", p.retransmitTimeout, desc::kPsPerUs);
  io.number("retransmit_backoff", p.retransmitBackoff);
  io.time("retransmit_cap_us", p.retransmitCap, desc::kPsPerUs);
  io.int32("retransmit_budget", p.retransmitBudget);
}

ProtocolParams protocolParamsFromDesc(desc::Reader& r) {
  ProtocolParams p;
  fields(r, p);
  r.finish();
  if (p.retransmitBudget < 0) r.fail("retransmit_budget must be >= 0");
  if (p.retransmitBackoff < 1.0) r.fail("retransmit_backoff must be >= 1");
  // Wire sizes of headers, control messages and acks: a negative or huge
  // one would move arrival times backwards.
  const std::pair<const char*, double> wireSizes[] = {
      {"header_bytes", p.headerBytes},
      {"ctrl_msg_bytes", p.ctrlMsgBytes},
      {"ack_bytes", p.ackBytes},
  };
  for (const auto& [key, bytes] : wireSizes) {
    if (!(std::isfinite(bytes) && bytes >= 0 &&
          bytes <= std::numeric_limits<std::uint32_t>::max())) {
      r.fail(std::string(key) + " must be finite, >= 0 and at most " +
             "4294967295 (pmpi's message limit), got " +
             desc::formatNumber(bytes));
    }
  }
  return p;
}

desc::Value toDesc(const ProtocolParams& p) { return desc::write(p); }

}  // namespace cbsim::pmpi
