#pragma once

// A stored payload that keeps only its non-zero head: the bytes up to and
// including the last non-zero one, plus the payload's full size.  Reading
// it back rebuilds the full payload, zero tail included.  Checkpoint state
// is often zero past a small live prefix (the resilience grids evolve one
// byte of a 64 KiB state), and the stores that keep every checkpoint of a
// world (node-local NVMe, NAM) would otherwise fill fresh host memory with
// those zeros.  Everything simulated keys on size(), the logical size,
// never on the bytes held.

#include <cstddef>
#include <span>
#include <vector>

namespace cbsim::hw {

/// Length of `data` up to and including its last non-zero byte; 0 when it
/// is empty or all zero.  A payload whose last byte is non-zero costs one
/// check; a zero tail is scanned a page, then a word, then a byte at a
/// time, from the end.
[[nodiscard]] std::size_t nonZeroLength(std::span<const std::byte> data);

class Blob {
 public:
  /// Replaces the held payload with `data`, reusing the head's capacity
  /// (the head is found by nonZeroLength()).
  void assign(std::span<const std::byte> data);

  /// The payload's full (logical) size.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The bytes actually held: the payload up to its last non-zero byte.
  [[nodiscard]] std::span<const std::byte> head() const { return head_; }

  /// Rebuilds the full payload into `out`: the head, then zeros up to
  /// size().
  void copyTo(std::vector<std::byte>& out) const {
    out.assign(head_.begin(), head_.end());
    out.resize(size_);
  }

 private:
  std::vector<std::byte> head_;
  std::size_t size_ = 0;
};

}  // namespace cbsim::hw
