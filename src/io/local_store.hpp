#pragma once

// Node-local NVMe blob store — the DEEP-ER per-node non-volatile memory
// used for I/O buffering and checkpointing (paper section II-B).  Supports
// remote ("buddy") writes: data crosses the fabric and lands on a partner
// node's NVMe, the redundancy scheme SCR's level-2 checkpoints use.
// dropNode() simulates losing a node (and everything on its NVMe).
// A blob holds only its payload's non-zero head (hw/blob.hpp): reads
// rebuild the zero tail, and NVMe time, fabric time and bytesOn() charge
// the full size.

#include <map>
#include <string>
#include <vector>

#include "extoll/fabric.hpp"
#include "hw/blob.hpp"
#include "pmpi/env.hpp"

namespace cbsim::io {

class LocalStore {
 public:
  LocalStore(hw::Machine& machine, extoll::Fabric& fabric)
      : machine_(machine), fabric_(fabric) {}

  /// Writes to the calling rank's node-local NVMe.
  void write(pmpi::Env& env, const std::string& key, pmpi::ConstBytes data);
  /// Reads from the local NVMe; false if the key is absent.
  bool read(pmpi::Env& env, const std::string& key, std::vector<std::byte>& out);

  /// Buddy write: ship the data to `targetNode` and store it on that
  /// node's NVMe.
  void writeTo(pmpi::Env& env, int targetNode, const std::string& key,
               pmpi::ConstBytes data);
  /// Fetches a blob stored on another node's NVMe.
  bool readFrom(pmpi::Env& env, int srcNode, const std::string& key,
                std::vector<std::byte>& out);

  [[nodiscard]] bool has(int node, const std::string& key) const {
    return blobs_.count({node, key}) != 0;
  }
  void erase(int node, const std::string& key) { blobs_.erase({node, key}); }
  /// Simulates a node failure: its NVMe contents are gone.
  void dropNode(int node);
  [[nodiscard]] std::size_t bytesOn(int node) const;

 private:
  void store(int node, const std::string& key, pmpi::ConstBytes data) {
    blobs_[{node, key}].assign(data);
  }

  hw::Machine& machine_;
  extoll::Fabric& fabric_;
  std::map<std::pair<int, std::string>, hw::Blob> blobs_;
};

}  // namespace cbsim::io
