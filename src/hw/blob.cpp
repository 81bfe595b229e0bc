#include "hw/blob.hpp"

#include <cstdint>
#include <cstring>

namespace cbsim::hw {

std::size_t nonZeroLength(std::span<const std::byte> data) {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  if (n == 0 || p[n - 1] != std::byte{0}) return n;
  // memcmp against a zero page reads wide; a byte loop made the scan cost
  // more than the copy it saves.
  static constexpr std::byte kZeroPage[4096] = {};
  while (n >= sizeof kZeroPage &&
         std::memcmp(p + n - sizeof kZeroPage, kZeroPage, sizeof kZeroPage) == 0) {
    n -= sizeof kZeroPage;
  }
  for (std::uint64_t word = 0; n >= sizeof word; n -= sizeof word) {
    std::memcpy(&word, p + n - sizeof word, sizeof word);
    if (word != 0) break;
  }
  while (n > 0 && p[n - 1] == std::byte{0}) --n;
  return n;
}

void Blob::assign(std::span<const std::byte> data) {
  const std::span<const std::byte> head = data.first(nonZeroLength(data));
  head_.assign(head.begin(), head.end());
  size_ = data.size();
}

}  // namespace cbsim::hw
