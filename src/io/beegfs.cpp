#include "io/beegfs.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "io/transfer.hpp"

namespace cbsim::io {

using sim::SimTime;

BeeGfs::BeeGfs(hw::Machine& machine, extoll::Fabric& fabric, FsConfig cfg)
    : machine_(machine), fabric_(fabric), cfg_(cfg) {
  const auto storage = machine_.nodesOfKind(hw::NodeKind::Storage);
  if (storage.size() < 2) {
    throw std::invalid_argument(
        "BeeGfs needs one metadata and at least one storage server");
  }
  metaNode_ = storage.front();
  targets_.assign(storage.begin() + 1, storage.end());
}

int BeeGfs::clientEp(const pmpi::Env& env) const {
  return machine_.endpointOfNode(env.node().id);
}

void BeeGfs::metaOp(pmpi::Env& env) {
  ++stats_.metaOps;
  const int me = clientEp(env);
  const int meta = machine_.endpointOfNode(metaNode_);
  // Request to the metadata server...
  awaitTransfer(env, fabric_, me, meta, 128.0);
  // ...service (serialized on the server)...
  const SimTime start = std::max(env.ctx().now(), metaBusy_);
  metaBusy_ = start + cfg_.metaServiceTime;
  awaitUntil(env, metaBusy_);
  // ...reply.
  awaitTransfer(env, fabric_, meta, me, 128.0);
}

BeeGfs::File BeeGfs::create(pmpi::Env& env, const std::string& path) {
  metaOp(env);
  files_[path];  // ensure existence
  return File(path);
}

BeeGfs::File BeeGfs::open(pmpi::Env& env, const std::string& path) {
  metaOp(env);
  if (!exists(path)) throw std::runtime_error("BeeGfs::open: no such file " + path);
  return File(path);
}

BeeGfs::File BeeGfs::attach(const std::string& path) {
  if (!exists(path)) throw std::runtime_error("BeeGfs::attach: no such file " + path);
  return File(path);
}

void BeeGfs::close(pmpi::Env& env, File& f) {
  metaOp(env);
  f.path_.clear();
}

void BeeGfs::remove(pmpi::Env& env, const std::string& path) {
  metaOp(env);
  files_.erase(path);
}

void BeeGfs::writeAsync(int clientNode, const std::string& path,
                        std::size_t offset, pmpi::ConstBytes data,
                        std::function<void()> onDone) {
  auto& content = files_[path];
  if (content.size() < offset + data.size()) content.resize(offset + data.size());
  std::memcpy(content.data() + offset, data.data(), data.size());
  stats_.bytesWritten += static_cast<double>(data.size());

  // Stripe over the targets; `onDone` fires when the last chunk is on
  // disk.  Chunk index is derived from the file offset so concurrent
  // writers hit disjoint targets.
  const int me = machine_.endpointOfNode(clientNode);
  auto outstanding = std::make_shared<int>(0);
  auto done = std::make_shared<std::function<void()>>(std::move(onDone));
  for (std::size_t pos = 0; pos < data.size(); pos += cfg_.stripeBytes) {
    const std::size_t chunk = std::min(cfg_.stripeBytes, data.size() - pos);
    const std::size_t chunkIdx = (offset + pos) / cfg_.stripeBytes;
    const int target = targets_[chunkIdx % targets_.size()];
    ++stats_.chunkWrites;
    ++*outstanding;
    fabric_.sendReliable(me, machine_.endpointOfNode(target),
                 static_cast<double>(chunk),
                 [this, target, chunk, outstanding, done] {
                   const SimTime at =
                       machine_.disk(target).reserve(static_cast<double>(chunk),
                                                     /*isWrite=*/true);
                   machine_.engine().scheduleAt(at, [outstanding, done] {
                     if (--*outstanding == 0 && *done) (*done)();
                   });
                 });
  }
  if (*outstanding == 0 && *done) (*done)();  // zero-byte write
}

void BeeGfs::write(pmpi::Env& env, const File& f, std::size_t offset,
                   pmpi::ConstBytes data) {
  if (!f.valid()) throw std::logic_error("BeeGfs::write on closed file");
  if (!exists(f.path())) throw std::logic_error("BeeGfs::write: file was removed");
  const double t0 = env.wtime();
  const auto done = std::make_shared<Completion>(env);
  writeAsync(env.node().id, f.path(), offset, data,
             [done] { done->arrive(); });
  done->wait(env);
  env.noteIo(env.wtime() - t0);
}

std::size_t BeeGfs::read(pmpi::Env& env, const File& f, std::size_t offset,
                         pmpi::Bytes out) {
  if (!f.valid()) throw std::logic_error("BeeGfs::read on closed file");
  const auto& content = files_.at(f.path());
  if (offset >= content.size()) return 0;
  const std::size_t n = std::min(out.size(), content.size() - offset);
  std::memcpy(out.data(), content.data() + offset, n);
  stats_.bytesRead += static_cast<double>(n);

  const int me = clientEp(env);
  const double t0 = env.wtime();
  const auto done = std::make_shared<Completion>(env, 0);
  for (std::size_t pos = 0; pos < n; pos += cfg_.stripeBytes) {
    const std::size_t chunk = std::min(cfg_.stripeBytes, n - pos);
    const std::size_t chunkIdx = (offset + pos) / cfg_.stripeBytes;
    const int target = targets_[chunkIdx % targets_.size()];
    ++stats_.chunkReads;
    done->expect();
    // Request (small), disk read at the target, then the data transfer.
    fabric_.sendReliable(me, machine_.endpointOfNode(target), 128.0,
                 [this, target, chunk, me, done] {
                   const SimTime at =
                       machine_.disk(target).reserve(static_cast<double>(chunk),
                                                     /*isWrite=*/false);
                   machine_.engine().scheduleAt(at, [this, target, chunk, me,
                                                     done] {
                     fabric_.sendReliable(machine_.endpointOfNode(target), me,
                                  static_cast<double>(chunk),
                                  [done] { done->arrive(); });
                   });
                 });
  }
  done->wait(env);
  env.noteIo(env.wtime() - t0);
  return n;
}

std::size_t BeeGfs::fileSize(const std::string& path) const {
  const auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.size();
}

}  // namespace cbsim::io
