#include "io/nam_store.hpp"

#include "io/transfer.hpp"

namespace cbsim::io {

bool NamStore::put(pmpi::Env& env, int namIdx, const std::string& key,
                   pmpi::ConstBytes data) {
  hw::NamDevice& nam = machine_.nam(namIdx);
  const int me = machine_.endpointOfNode(env.node().id);
  const int dev = machine_.endpointOfNam(namIdx);
  awaitTransfer(env, fabric_, me, dev, static_cast<double>(data.size()));
  env.ioDelay(nam.serviceTime(static_cast<double>(data.size())));
  return nam.put(key, data);
}

bool NamStore::get(pmpi::Env& env, int namIdx, const std::string& key,
                   std::vector<std::byte>& out) {
  hw::NamDevice& nam = machine_.nam(namIdx);
  const auto* blob = nam.get(key);
  if (blob == nullptr) return false;
  env.ioDelay(nam.serviceTime(static_cast<double>(blob->size())));
  const int me = machine_.endpointOfNode(env.node().id);
  const int dev = machine_.endpointOfNam(namIdx);
  awaitTransfer(env, fabric_, dev, me, static_cast<double>(blob->size()));
  blob->copyTo(out);
  return true;
}

}  // namespace cbsim::io
