// Heap-allocation guard for the eager message path.  A message's delivery
// closure travels from pmpi through the fabric to the engine as a
// sim::EventFn, inline up to 64 bytes, and a named-source receive takes
// its unexpected message without enumerating choice alternatives, so a
// steady ping-pong allocates nothing per message.  This binary replaces
// the global operator new with a counting one, which is why it is a test
// executable of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "mc/choice.hpp"
#include "world_fixture.hpp"

namespace {

std::atomic<std::uint64_t> gNews{0};

void* countedNew(std::size_t n) {
  gNews.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every form that can free what another allocates is replaced together, so
// a sanitizer's own operator delete never sees memory from malloc.
void* operator new(std::size_t n) { return countedNew(n); }
void* operator new[](std::size_t n) { return countedNew(n); }
void* operator new(std::size_t n, const std::nothrow_t& /*tag*/) noexcept {
  try {
    return countedNew(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*n*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*n*/) noexcept { std::free(p); }

namespace {

using namespace cbsim;
using namespace cbsim::sim::literals;

struct Count {
  std::uint64_t messages = 0;
  std::uint64_t news = 0;
};

/// 1 KiB eager ping-pongs between two ranks, with the DeterministicChooser
/// every campaign world carries attached.  In every other round each
/// receiver lags 50 us before posting, so both legs arrive unexpected.
/// Counts operator new calls over `rounds` rounds after a warm-up.
Count pingPong(bool reliable, int rounds) {
  pmpi::ProtocolParams params;
  params.reliable = reliable;
  cbsim::testing::World w(hw::MachineConfig::deepEr(4, 4), params);
  mc::DeterministicChooser chooser;
  w.rt.setChooser(&chooser);
  // Past the 500 us retransmit timeout, so the reliable transport's pending
  // timer events, and the event queue holding them, have stopped growing.
  constexpr int kWarmup = 50;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  w.runRanks(2, [&](pmpi::Env& env) {
    const pmpi::Comm c = env.world();
    const int peer = 1 - env.rank();
    std::vector<std::byte> buf(1024, std::byte{1});
    for (int i = 0; i < kWarmup + rounds; ++i) {
      if (i == kWarmup && env.rank() == 0) before = gNews.load();
      const bool lag = i % 2 == 1;
      if (env.rank() == 0) {
        env.send(c, peer, 0, pmpi::ConstBytes(buf));
        if (lag) env.computeDelay(50_us);
        env.recv(c, peer, 0, pmpi::Bytes(buf));
      } else {
        if (lag) env.computeDelay(50_us);
        env.recv(c, peer, 0, pmpi::Bytes(buf));
        env.send(c, peer, 0, pmpi::ConstBytes(buf));
      }
    }
    // Rank 1 finishes only after the count is read: its exit returns its
    // stack to the engine's pool, which is not a per-message cost.
    if (env.rank() == 0) {
      after = gNews.load();
      env.send(c, peer, 1, pmpi::ConstBytes{});
    } else {
      env.recv(c, peer, 1, pmpi::Bytes{});
    }
  });
  return {2 * static_cast<std::uint64_t>(rounds), after - before};
}

// Before, the plain transport wrapped every 64-byte eager closure in a
// std::function (one allocation per message) and a receive that found its
// message unexpected built two vectors of choice alternatives (two more).
TEST(PmpiAlloc, PlainEagerPingPongDoesNotAllocatePerMessage) {
  const Count c = pingPong(false, 200);
  EXPECT_LT(c.news * 100, c.messages)
      << c.news << " allocations over " << c.messages << " messages";
}

// The reliable channel keeps its window entries as std::function, one
// allocation per message; the frame and ack closures no longer add two.
TEST(PmpiAlloc, ReliableEagerPingPongAllocatesAtMostOncePerMessage) {
  const Count c = pingPong(true, 200);
  EXPECT_LE(c.news, c.messages)
      << c.news << " allocations over " << c.messages << " messages";
}

}  // namespace
