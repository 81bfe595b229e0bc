#include "extoll/desc.hpp"

namespace cbsim::extoll {

FabricOptions fabricOptionsFromDesc(desc::Reader& r) {
  FabricOptions o;
  const std::string routing = r.stringAt("routing", "auto");
  if (routing == "auto") {
    o.routing = RoutingMode::Auto;
  } else if (routing == "enumerated") {
    o.routing = RoutingMode::Enumerated;
  } else if (routing == "structural") {
    o.routing = RoutingMode::Structural;
  } else {
    r.fail("routing must be \"auto\", \"enumerated\", or \"structural\"");
  }
  const std::string model = r.stringAt("model", "packet");
  if (model == "packet") {
    o.model = CongestionModel::Packet;
  } else if (model == "flow") {
    o.model = CongestionModel::Flow;
  } else {
    r.fail("model must be \"packet\" or \"flow\"");
  }
  o.routeCacheCap = static_cast<std::size_t>(
      r.uintAt("route_cache_cap", o.routeCacheCap));
  if (o.routeCacheCap == 0) r.fail("route_cache_cap must be >= 1");
  r.finish();
  return o;
}

desc::Value toDesc(const FabricOptions& o) {
  desc::Value v = desc::Value::object();
  const char* routing = o.routing == RoutingMode::Enumerated   ? "enumerated"
                        : o.routing == RoutingMode::Structural ? "structural"
                                                               : "auto";
  v.set("routing", desc::Value::string(routing));
  v.set("model", desc::Value::string(
                     o.model == CongestionModel::Flow ? "flow" : "packet"));
  v.set("route_cache_cap", desc::Value::unsignedInt(o.routeCacheCap));
  return v;
}

}  // namespace cbsim::extoll
