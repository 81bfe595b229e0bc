#pragma once

// BeeGFS-like parallel file system model (paper section III-C).
//
// One metadata server plus striping storage targets (the machine's Storage
// nodes).  Metadata operations (create/open/close/remove) round-trip to the
// metadata server and serialize on it — which is exactly the bottleneck
// SIONlib exists to relieve.  Data operations stripe chunks round-robin
// over the targets: each chunk pays a fabric transfer plus the target's
// disk-array service time.  File contents are stored for real, so
// checkpoint data survives a round trip bit-exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "extoll/fabric.hpp"
#include "pmpi/env.hpp"
#include "sim/time.hpp"

namespace cbsim::io {

struct FsConfig {
  std::size_t stripeBytes = 1 << 20;
  sim::SimTime metaServiceTime = sim::SimTime::us(300);
};

class BeeGfs {
 public:
  /// An open-file handle; obtained from create()/open().
  class File {
   public:
    File() = default;
    [[nodiscard]] bool valid() const { return !path_.empty(); }
    [[nodiscard]] const std::string& path() const { return path_; }

   private:
    friend class BeeGfs;
    explicit File(std::string p) : path_(std::move(p)) {}
    std::string path_;
  };

  struct Stats {
    std::uint64_t metaOps = 0;
    std::uint64_t chunkWrites = 0;
    std::uint64_t chunkReads = 0;
    double bytesWritten = 0;
    double bytesRead = 0;
  };

  BeeGfs(hw::Machine& machine, extoll::Fabric& fabric, FsConfig cfg = {});

  /// Metadata operations (round trip to the metadata server).
  File create(pmpi::Env& env, const std::string& path);
  File open(pmpi::Env& env, const std::string& path);
  /// Returns a handle to an existing file without metadata traffic.  For
  /// collective layers (SIONlib) where one rank performed the metadata
  /// operation and distributed the layout to the others.
  File attach(const std::string& path);
  void close(pmpi::Env& env, File& f);
  void remove(pmpi::Env& env, const std::string& path);

  /// Striped data operations; extend the file as needed.
  void write(pmpi::Env& env, const File& f, std::size_t offset,
             pmpi::ConstBytes data);
  /// Fire-and-forget striped write from `clientNode` (no calling process
  /// blocked); `onDone` runs when the last chunk is on disk.  `data` is
  /// stored before the call returns.  Used by the BeeOND asynchronous
  /// flush path.
  void writeAsync(int clientNode, const std::string& path, std::size_t offset,
                  pmpi::ConstBytes data, std::function<void()> onDone);
  std::size_t read(pmpi::Env& env, const File& f, std::size_t offset,
                   pmpi::Bytes out);

  [[nodiscard]] bool exists(const std::string& path) const {
    return files_.count(path) != 0;
  }
  [[nodiscard]] std::size_t fileSize(const std::string& path) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int targetCount() const { return static_cast<int>(targets_.size()); }

  /// Erases contents without timing (test setup helper).
  void wipe() { files_.clear(); }

 private:
  void metaOp(pmpi::Env& env);
  [[nodiscard]] int clientEp(const pmpi::Env& env) const;

  hw::Machine& machine_;
  extoll::Fabric& fabric_;
  FsConfig cfg_;
  int metaNode_ = -1;
  std::vector<int> targets_;
  sim::SimTime metaBusy_ = sim::SimTime::zero();
  std::map<std::string, std::vector<std::byte>> files_;
  Stats stats_;
};

}  // namespace cbsim::io
