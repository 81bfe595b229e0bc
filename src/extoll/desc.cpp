#include "extoll/desc.hpp"

namespace cbsim::extoll {

namespace {

RoutingMode routingFromDesc(desc::Reader& r) {
  const std::string& routing = r.asString();
  if (routing == "auto") return RoutingMode::Auto;
  if (routing == "enumerated") return RoutingMode::Enumerated;
  if (routing == "structural") return RoutingMode::Structural;
  r.fail("routing must be \"auto\", \"enumerated\", or \"structural\"");
}

CongestionModel modelFromDesc(desc::Reader& r) {
  const std::string& model = r.asString();
  if (model == "packet") return CongestionModel::Packet;
  if (model == "flow") return CongestionModel::Flow;
  r.fail("model must be \"packet\" or \"flow\"");
}

}  // namespace

// Static rather than in the unnamed namespace: desc::Writer finds a
// field's toDesc by argument-dependent lookup.
static desc::Value toDesc(RoutingMode m) {
  return desc::Value::string(m == RoutingMode::Enumerated   ? "enumerated"
                             : m == RoutingMode::Structural ? "structural"
                                                            : "auto");
}

static desc::Value toDesc(CongestionModel m) {
  return desc::Value::string(m == CongestionModel::Flow ? "flow" : "packet");
}

template <class Io>
void fields(Io& io, FabricOptions& o) {
  io.object("routing", o.routing, routingFromDesc);
  io.object("model", o.model, modelFromDesc);
}

FabricOptions fabricOptionsFromDesc(desc::Reader& r) {
  FabricOptions o;
  fields(r, o);
  r.finish();
  return o;
}

desc::Value toDesc(const FabricOptions& o) { return desc::write(o); }

}  // namespace cbsim::extoll
