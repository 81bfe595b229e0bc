#include "io/beeond.hpp"

#include <algorithm>
#include <cstring>

#include "io/transfer.hpp"

namespace cbsim::io {

BeeGfs::File BeeondCache::ensureCreated(pmpi::Env& env,
                                        const std::string& path) {
  const auto it = handles_.find(path);
  if (it != handles_.end()) return it->second;
  const BeeGfs::File f =
      fs_.exists(path) ? fs_.open(env, path) : fs_.create(env, path);
  handles_.emplace(path, f);
  return f;
}

void BeeondCache::write(pmpi::Env& env, const std::string& path,
                        std::size_t offset, pmpi::ConstBytes data) {
  const int node = env.node().id;

  // Stage on the node-local NVMe (the cache domain).
  const sim::SimTime staged =
      machine_.nvme(node).reserve(static_cast<double>(data.size()), true);
  auto& local = cache_[{node, path}];
  if (local.size() < offset + data.size()) local.resize(offset + data.size());
  std::memcpy(local.data() + offset, data.data(), data.size());
  awaitUntil(env, staged);

  const BeeGfs::File f = ensureCreated(env, path);
  if (mode_ == Mode::Sync) {
    fs_.write(env, f, offset, data);
    return;
  }
  // Asynchronous flush: runs in the background; the application continues.
  ++pending_;
  fs_.writeAsync(node, path, offset, data, [this] {
    if (--pending_ == 0) {
      for (sim::Process* p : drainWaiters_) {
        machine_.engine().wake(*p);
      }
      drainWaiters_.clear();
    }
  });
}

std::size_t BeeondCache::read(pmpi::Env& env, const std::string& path,
                              std::size_t offset, pmpi::Bytes out) {
  const int node = env.node().id;
  const auto it = cache_.find({node, path});
  if (it != cache_.end() && offset < it->second.size()) {
    // Cache hit: NVMe speed, no global-storage access.
    const std::size_t n = std::min(out.size(), it->second.size() - offset);
    std::memcpy(out.data(), it->second.data() + offset, n);
    awaitUntil(env, machine_.nvme(node).reserve(static_cast<double>(n), false));
    return n;
  }
  const BeeGfs::File f = ensureCreated(env, path);
  return fs_.read(env, f, offset, out);
}

void BeeondCache::drain(pmpi::Env& env) {
  const double t0 = env.wtime();
  sim::Process& self = env.ctx().process();
  while (pending_ > 0) {
    if (std::find(drainWaiters_.begin(), drainWaiters_.end(), &self) ==
        drainWaiters_.end()) {
      drainWaiters_.push_back(&self);
    }
    env.ctx().suspend();
  }
  // A waiter woken by an unrelated token may leave before pending_ hits
  // zero on a later flush; drop any stale registration.
  drainWaiters_.erase(std::remove(drainWaiters_.begin(), drainWaiters_.end(), &self),
                      drainWaiters_.end());
  env.noteIo(env.wtime() - t0);
}

}  // namespace cbsim::io
