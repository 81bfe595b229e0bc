#pragma once

// Network Attached Memory (NAM): an HMC + FPGA device hanging directly off
// the EXTOLL fabric (DEEP-ER, section II-B).  Remote nodes access it via
// RDMA without any CPU on the device side, so a NAM access costs fabric
// time + device service time, but no endpoint software overhead.
//
// The device stores real bytes (keyed blobs), because the SCR checkpointing
// stack round-trips actual checkpoint data through it in tests.  A blob
// holds only its payload's non-zero head (hw/blob.hpp); capacity and
// service time charge its full size.

#include <cstddef>
#include <map>
#include <span>
#include <string>

#include "hw/blob.hpp"
#include "sim/time.hpp"

namespace cbsim::hw {

struct NamSpec {
  std::string model = "HMC + Xilinx Virtex 7";
  double capacityGB = 2.0;  ///< current HMC technology limitation
  double bandwidthGBs = 10.0;  ///< device-side streaming rate (fabric-limited)
  sim::SimTime accessLatency = sim::SimTime::ns(700);
};

class NamDevice {
 public:
  explicit NamDevice(NamSpec spec = {}) : spec_(std::move(spec)) {}

  [[nodiscard]] const NamSpec& spec() const { return spec_; }

  /// Device-side service time for a transfer of `bytes` (no queueing; the
  /// fabric layer serializes the link in front of the device).
  [[nodiscard]] sim::SimTime serviceTime(double bytes) const {
    return spec_.accessLatency +
           sim::SimTime::seconds(bytes / (spec_.bandwidthGBs * 1e9));
  }

  /// Stores a blob. Returns false (and stores nothing) when the device
  /// would exceed its capacity.
  bool put(const std::string& key, std::span<const std::byte> data) {
    const auto it = blobs_.find(key);
    const std::size_t existing = (it != blobs_.end()) ? it->second.size() : 0;
    if (usedBytes_ - existing + data.size() > capacityBytes()) return false;
    usedBytes_ = usedBytes_ - existing + data.size();
    blobs_[key].assign(data);
    return true;
  }

  /// Fetches a blob; nullptr if absent.
  [[nodiscard]] const Blob* get(const std::string& key) const {
    const auto it = blobs_.find(key);
    return it == blobs_.end() ? nullptr : &it->second;
  }

  bool erase(const std::string& key) {
    const auto it = blobs_.find(key);
    if (it == blobs_.end()) return false;
    usedBytes_ -= it->second.size();
    blobs_.erase(it);
    return true;
  }

  [[nodiscard]] std::size_t usedBytes() const { return usedBytes_; }
  [[nodiscard]] std::size_t capacityBytes() const {
    return static_cast<std::size_t>(spec_.capacityGB * 1e9);
  }

 private:
  NamSpec spec_;
  std::map<std::string, Blob> blobs_;
  std::size_t usedBytes_ = 0;
};

}  // namespace cbsim::hw
