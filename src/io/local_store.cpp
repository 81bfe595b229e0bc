#include "io/local_store.hpp"

#include "io/transfer.hpp"

namespace cbsim::io {

void LocalStore::write(pmpi::Env& env, const std::string& key,
                       pmpi::ConstBytes data) {
  const int node = env.node().id;
  const sim::SimTime done =
      machine_.nvme(node).reserve(static_cast<double>(data.size()), true);
  store(node, key, data);
  awaitUntil(env, done);
}

bool LocalStore::read(pmpi::Env& env, const std::string& key,
                      std::vector<std::byte>& out) {
  const int node = env.node().id;
  const auto it = blobs_.find({node, key});
  if (it == blobs_.end()) return false;
  const sim::SimTime done =
      machine_.nvme(node).reserve(static_cast<double>(it->second.size()), false);
  it->second.copyTo(out);
  awaitUntil(env, done);
  return true;
}

void LocalStore::writeTo(pmpi::Env& env, int targetNode, const std::string& key,
                         pmpi::ConstBytes data) {
  const int me = machine_.endpointOfNode(env.node().id);
  const int dst = machine_.endpointOfNode(targetNode);
  awaitTransfer(env, fabric_, me, dst, static_cast<double>(data.size()));
  const sim::SimTime done =
      machine_.nvme(targetNode).reserve(static_cast<double>(data.size()), true);
  store(targetNode, key, data);
  awaitUntil(env, done);
}

bool LocalStore::readFrom(pmpi::Env& env, int srcNode, const std::string& key,
                          std::vector<std::byte>& out) {
  const auto it = blobs_.find({srcNode, key});
  if (it == blobs_.end()) return false;
  const sim::SimTime done =
      machine_.nvme(srcNode).reserve(static_cast<double>(it->second.size()), false);
  awaitUntil(env, done);
  const int me = machine_.endpointOfNode(env.node().id);
  const int src = machine_.endpointOfNode(srcNode);
  awaitTransfer(env, fabric_, src, me, static_cast<double>(it->second.size()));
  it->second.copyTo(out);
  return true;
}

void LocalStore::dropNode(int node) {
  for (auto it = blobs_.begin(); it != blobs_.end();) {
    it = it->first.first == node ? blobs_.erase(it) : std::next(it);
  }
}

std::size_t LocalStore::bytesOn(int node) const {
  std::size_t n = 0;
  for (const auto& [k, v] : blobs_) {
    if (k.first == node) n += v.size();
  }
  return n;
}

}  // namespace cbsim::io
