#pragma once

// Arena storage for the pmpi message engine's per-operation state.
//
// RequestPool — generation-checked free-list slab behind the Request
// handle (types.hpp).  Replaces one shared_ptr<RequestState> heap
// allocation (plus control block) per nonblocking operation with slot
// recycling: steady state allocates nothing, and the pool's footprint is
// the high-water mark of concurrently live operations, not the operation
// count.  Live requests are threaded on an intrusive per-owner list so a
// dying rank's slots are reclaimed in O(live-on-that-rank), never by
// scanning the pool.
//
// PayloadArena — per-destination-rank storage for in-flight eager
// payloads.  A payload reserves its full length at send time and is
// referenced by (offset, length), but only its non-zero head is copied in:
// the receiver rebuilds the zero tail.  Blocks are recycled by exact size
// while traffic is in flight and the whole arena resets to offset zero
// whenever it drains, so the arena's size tracks peak concurrent eager
// bytes, not cumulative traffic.  Growing moves only the bytes written
// since the last drain, so reserved bytes nobody wrote are never touched.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/blob.hpp"
#include "pmpi/types.hpp"

namespace cbsim::pmpi {

/// In-flight nonblocking operation.
struct RequestState {
  bool done = false;
  bool isRecv = false;
  /// Receive side: keeps none of the message.  recvBuf is empty, and the
  /// receive takes up to discardCapacity bytes, as a buffer that long would.
  bool discard = false;
  Status status;

  // Receive side: posted filter + destination buffer.
  int commId = -1;
  int srcFilter = AnySource;
  int tagFilter = AnyTag;
  std::uint32_t discardCapacity = 0;
  Bytes recvBuf;

  // Send side (rendezvous): the source buffer must stay valid until done.
  // It holds the payload's head; the payload is zero past it.
  ConstBytes sendBuf;

  // Pool bookkeeping (RequestPool only).
  std::uint32_t gen = 1;       ///< bumped on release; matches live handles
  int ownerProc = -1;          ///< proc whose drain reclaims this slot
  std::uint32_t prevOwned = 0xffffffffu;  ///< intrusive per-owner list
  std::uint32_t nextOwned = 0xffffffffu;

  /// Receive side: the longest payload the receive takes without truncating.
  [[nodiscard]] std::size_t recvCapacity() const {
    return discard ? discardCapacity : recvBuf.size();
  }
};
// mem.request_pool_bytes counts slots of this size: the discard fields sit
// in what was padding.
static_assert(sizeof(RequestState) == 88);

class RequestPool {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Takes a slot (recycled or fresh), resets its operation fields, links
  /// it at the head of the owner's intrusive list, and returns its handle.
  Request allocate(int ownerProc, std::uint32_t& ownerHead) {
    std::uint32_t idx;
    if (freeHead_ != kNone) {
      idx = freeHead_;
      freeHead_ = slot(idx).nextOwned;  // free list reuses the link field
    } else {
      if (size_ == chunks_.size() * kChunk) {
        chunks_.push_back(std::make_unique<RequestState[]>(kChunk));
      }
      idx = static_cast<std::uint32_t>(size_++);
    }
    RequestState& s = slot(idx);
    const std::uint32_t gen = s.gen;
    s = RequestState{};  // reset operation fields
    s.gen = gen;
    s.ownerProc = ownerProc;
    s.prevOwned = kNone;
    s.nextOwned = ownerHead;
    if (ownerHead != kNone) slot(ownerHead).prevOwned = idx;
    ownerHead = idx;
    ++live_;
    return Request{idx, gen};
  }

  /// Live state behind `h`, or nullptr for a null or stale (already
  /// released) handle.
  [[nodiscard]] RequestState* find(Request h) {
    if (!h.valid() || h.idx >= size_) return nullptr;
    RequestState& s = slot(h.idx);
    return s.gen == h.gen ? &s : nullptr;
  }
  [[nodiscard]] const RequestState* find(Request h) const {
    return const_cast<RequestPool*>(this)->find(h);
  }

  /// Live state behind `h`; throws on a stale handle (callers that hold a
  /// request in a matching queue know it is live).
  [[nodiscard]] RequestState& get(Request h) {
    RequestState* s = find(h);
    if (s == nullptr) throw std::logic_error("pmpi: stale request handle");
    return *s;
  }
  [[nodiscard]] const RequestState& get(Request h) const {
    return const_cast<RequestPool*>(this)->get(h);
  }

  /// Unlinks the slot from its owner list, bumps its generation (stale
  /// handles stop resolving), and recycles it.  No-op for stale handles.
  void release(Request h, std::uint32_t& ownerHead) {
    RequestState* s = find(h);
    if (s == nullptr) return;
    if (s->prevOwned != kNone) {
      slot(s->prevOwned).nextOwned = s->nextOwned;
    } else {
      ownerHead = s->nextOwned;
    }
    if (s->nextOwned != kNone) slot(s->nextOwned).prevOwned = s->prevOwned;
    if (++s->gen == 0) s->gen = 1;  // 0 is the null-handle generation
    s->recvBuf = Bytes{};
    s->sendBuf = ConstBytes{};
    s->nextOwned = freeHead_;
    freeHead_ = h.idx;
    --live_;
  }

  /// Releases every slot on an owner list (rank drain).
  void releaseAll(std::uint32_t& ownerHead) {
    while (ownerHead != kNone) {
      release(Request{ownerHead, slot(ownerHead).gen}, ownerHead);
    }
  }

  [[nodiscard]] std::size_t slotCount() const { return size_; }
  [[nodiscard]] std::size_t liveCount() const { return live_; }
  /// Bytes reserved for slot storage (the pool's high-water footprint).
  [[nodiscard]] std::size_t capacityBytes() const {
    return chunks_.size() * kChunk * sizeof(RequestState);
  }

 private:
  static constexpr std::size_t kChunk = 256;

  [[nodiscard]] RequestState& slot(std::uint32_t idx) {
    return chunks_[idx / kChunk][idx % kChunk];
  }

  std::vector<std::unique_ptr<RequestState[]>> chunks_;
  std::size_t size_ = 0;
  std::size_t live_ = 0;
  std::uint32_t freeHead_ = kNone;
};

class PayloadArena {
 public:
  /// Where store() put a payload.
  struct Stored {
    std::uint32_t off = 0;
    std::uint32_t head = 0;  ///< bytes written: up to the last non-zero one
  };

  /// Reserves `len` bytes for a payload that is `head` followed by zeros
  /// up to `len` (head.size() <= len), and copies in only head's non-zero
  /// part; the rest of the block holds whatever it held before, so the
  /// reader writes the zero tail itself.  Prefers an exact-size recycled
  /// block (the homogeneous-message common case); otherwise bump-extends.
  /// An empty payload holds nothing and is never released, so it is not
  /// counted as outstanding either.
  Stored store(ConstBytes head, std::uint32_t len) {
    if (len == 0) return {};
    const Stored out{reserve(len),
                     static_cast<std::uint32_t>(hw::nonZeroLength(head))};
    if (out.head > 0) {
      std::memcpy(buf_.get() + out.off, head.data(), out.head);
      written_ = std::max(written_, out.off + out.head);
    }
    return out;
  }

  [[nodiscard]] const std::byte* at(std::uint32_t off) const {
    return buf_.get() + off;
  }

  /// Returns a block.  When the last outstanding payload drains, the
  /// arena resets to offset zero (capacity retained for the next burst).
  void release(std::uint32_t off, std::uint32_t len) {
    if (outstanding_ > 0) --outstanding_;  // saturate: brokenDedupForTest
    if (outstanding_ == 0) {               // double-delivers double-release
      size_ = 0;
      written_ = 0;
      freeBlocks_.clear();
      return;
    }
    freeBlocks_.push_back(Block{off, len});
  }

  /// Forgets every payload (rank drain; nothing will be consumed again).
  /// The buffer keeps its capacity, and capacityBytes() still counts it.
  void reset() {
    size_ = 0;
    written_ = 0;
    freeBlocks_.clear();
    outstanding_ = 0;
  }

  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::size_t capacityBytes() const { return capacity_; }
  [[nodiscard]] std::size_t peakBytes() const { return peakBytes_; }

 private:
  struct Block {
    std::uint32_t off;
    std::uint32_t len;
  };

  /// Offset of a `len`-byte block: a recycled one of exactly that size,
  /// else a new one at the end.  Offsets are 32-bit, so an arena that would
  /// pass 4 GiB refuses before it grows.  Growth follows libstdc++'s
  /// std::vector rule (mem.payload_arena_bytes reports the capacity) and
  /// copies only the bytes below the written mark.
  std::uint32_t reserve(std::uint32_t len) {
    for (std::size_t i = 0; i < freeBlocks_.size(); ++i) {
      if (freeBlocks_[i].len != len) continue;
      const std::uint32_t off = freeBlocks_[i].off;
      freeBlocks_[i] = freeBlocks_.back();
      freeBlocks_.pop_back();
      ++outstanding_;
      return off;
    }
    const std::size_t end = std::size_t{size_} + len;
    if (end > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error(
          "pmpi: eager payload arena of " + std::to_string(size_) +
          " bytes cannot take a " + std::to_string(len) +
          "-byte payload: its offsets are 32-bit");
    }
    if (end > capacity_) {
      const std::size_t grown = size_ + std::max<std::size_t>(size_, len);
      auto buf = std::make_unique_for_overwrite<std::byte[]>(grown);
      if (written_ > 0) std::memcpy(buf.get(), buf_.get(), written_);
      buf_ = std::move(buf);
      capacity_ = grown;
    }
    const std::uint32_t off = size_;
    size_ = static_cast<std::uint32_t>(end);
    peakBytes_ = std::max<std::size_t>(peakBytes_, size_);
    ++outstanding_;
    return off;
  }

  std::unique_ptr<std::byte[]> buf_;
  std::size_t capacity_ = 0;
  std::uint32_t size_ = 0;     ///< bytes reserved since the last drain
  std::uint32_t written_ = 0;  ///< end of the highest head since then
  std::vector<Block> freeBlocks_;
  std::uint32_t outstanding_ = 0;
  std::size_t peakBytes_ = 0;
};
// mem.proc_slab_bytes counts sizeof(Proc), which holds one arena.
static_assert(sizeof(PayloadArena) == 64);

}  // namespace cbsim::pmpi
