// Tests for the I/O stack: BeeGFS striping and metadata costs, SIONlib
// container bundling, node-local/buddy NVMe store, NAM blob access, and
// the BeeOND sync/async cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "io/beegfs.hpp"
#include "io/beeond.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "io/sion.hpp"
#include "world_fixture.hpp"

namespace {

using namespace cbsim;
using cbsim::testing::World;
using pmpi::Env;

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + static_cast<int>(i)) & 0xff);
  }
  return v;
}

// ------------------------------------------------------------------ BeeGFS

TEST(BeeGfs, WriteReadRoundtrip) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/scratch/data.bin");
    const auto data = pattern(3 << 20, 7);  // three stripes + change
    fs.write(env, f, 0, data);
    std::vector<std::byte> back(data.size());
    EXPECT_EQ(fs.read(env, f, 0, back), data.size());
    EXPECT_EQ(back, data);
    fs.close(env, f);
  });
  EXPECT_EQ(fs.fileSize("/scratch/data.bin"), 3u << 20);
}

TEST(BeeGfs, OffsetWritesExtendFile) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/a");
    const auto d = pattern(100, 1);
    fs.write(env, f, 1000, d);
    EXPECT_EQ(fs.fileSize("/a"), 1100u);
    std::vector<std::byte> back(100);
    fs.read(env, f, 1000, back);
    EXPECT_EQ(back, d);
  });
}

TEST(BeeGfs, MetadataOpsAreCounted) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/x");  // 1
    fs.close(env, f);               // 2
    auto g = fs.open(env, "/x");    // 3
    fs.close(env, g);               // 4
    fs.remove(env, "/x");           // 5
  });
  EXPECT_EQ(fs.stats().metaOps, 5u);
  EXPECT_FALSE(fs.exists("/x"));
}

TEST(BeeGfs, StripingSpreadsChunksOverTargets) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/big");
    fs.write(env, f, 0, pattern(4 << 20, 2));  // 4 chunks over 2 targets
  });
  EXPECT_EQ(fs.stats().chunkWrites, 4u);
  const auto storage = w.machine.nodesOfKind(hw::NodeKind::Storage);
  // Both data targets (the servers after the metadata server) saw traffic.
  EXPECT_GT(w.machine.disk(storage[1]).bytesWritten(), 0.0);
  EXPECT_GT(w.machine.disk(storage[2]).bytesWritten(), 0.0);
}

TEST(BeeGfs, OpenMissingFileThrows) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.registry.add("bad", [&](Env& env) { fs.open(env, "/nope"); });
  w.rt.launch("bad", hw::NodeKind::Cluster, 1);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(BeeGfs, WritesChargeIoTime) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  double ioSec = 0;
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/t");
    fs.write(env, f, 0, pattern(64 << 20, 3));  // 64 MiB
    ioSec = env.ioSec();
  });
  // 64 MiB over two ~300 MB/s disk arrays: at least ~0.1 s.
  EXPECT_GT(ioSec, 0.05);
}

// ------------------------------------------------------------------ SIONlib

TEST(Sion, CollectiveContainerRoundtrip) {
  World w(hw::MachineConfig::deepEr(4, 2));
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(4, [&](Env& env) {
    const auto mine = pattern(4096, env.rank());
    auto sf = io::SionFile::createCollective(env, env.world(), fs, "/ckpt.sion",
                                             mine.size());
    sf.write(env, pmpi::ConstBytes(mine));
    sf.close(env, env.world());

    env.barrier(env.world());
    auto rf = io::SionFile::openCollective(env, env.world(), fs, "/ckpt.sion");
    std::vector<std::byte> back(4096);
    EXPECT_EQ(rf.read(env, pmpi::Bytes(back)), 4096u);
    EXPECT_EQ(back, mine);  // every rank gets its own chunk back
  });
}

TEST(Sion, BundlingSlashesMetadataLoad) {
  // The SIONlib pitch: N task-local files cost N metadata creates;
  // one container costs one.
  World w(hw::MachineConfig::deepEr(8, 2));
  const int n = 8;

  io::BeeGfs fsLocal(w.machine, w.fabric);
  w.runRanks(n, [&](Env& env) {
    auto f = fsLocal.create(env, "/task." + std::to_string(env.rank()));
    fsLocal.write(env, f, 0, pattern(1024, env.rank()));
    fsLocal.close(env, f);
  });

  io::BeeGfs fsSion(w.machine, w.fabric);
  w.runRanks(n, [&](Env& env) {
    auto sf = io::SionFile::createCollective(env, env.world(), fsSion,
                                             "/all.sion", 1024);
    sf.write(env, pmpi::ConstBytes(pattern(1024, env.rank())));
    sf.close(env, env.world());
  });

  EXPECT_EQ(fsLocal.stats().metaOps, 2u * n);         // create+close per task
  EXPECT_EQ(fsSion.stats().metaOps, 2u);              // one create, one close
  EXPECT_LT(fsSion.stats().metaOps * 4, fsLocal.stats().metaOps);
}

TEST(Sion, ChunkOverflowThrows) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.registry.add("overflow", [&](Env& env) {
    auto sf = io::SionFile::createCollective(env, env.world(), fs, "/s", 16);
    sf.write(env, pmpi::ConstBytes(pattern(17, 0)));
  });
  w.rt.launch("overflow", hw::NodeKind::Cluster, 1);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(Sion, TaskCountMismatchDetected) {
  World w(hw::MachineConfig::deepEr(4, 2));
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(2, [&](Env& env) {
    auto sf = io::SionFile::createCollective(env, env.world(), fs, "/two", 64);
    sf.write(env, pmpi::ConstBytes(pattern(64, env.rank())));
    sf.close(env, env.world());
  });
  w.registry.add("reopen", [&](Env& env) {
    io::SionFile::openCollective(env, env.world(), fs, "/two");
  });
  w.rt.launch("reopen", hw::NodeKind::Cluster, 3);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

// --------------------------------------------------------------- LocalStore

TEST(LocalStore, LocalRoundtrip) {
  World w;
  io::LocalStore store(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(1 << 20, 5);
    store.write(env, "ckpt/0", pmpi::ConstBytes(data));
    std::vector<std::byte> back;
    ASSERT_TRUE(store.read(env, "ckpt/0", back));
    EXPECT_EQ(back, data);
    EXPECT_GT(env.ioSec(), 0.0);
  });
}

TEST(LocalStore, BuddyWriteLandsOnPartnerNode) {
  World w;
  io::LocalStore store(w.machine, w.fabric);
  std::vector<int> nodes(2, -1);
  w.runRanks(2, [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    env.barrier(env.world());
    if (env.rank() == 0) {
      store.writeTo(env, nodes[1], "buddy/0", pmpi::ConstBytes(pattern(4096, 9)));
    }
  });
  EXPECT_FALSE(store.has(nodes[0], "buddy/0"));
  EXPECT_TRUE(store.has(nodes[1], "buddy/0"));
}

TEST(LocalStore, DropNodeLosesData) {
  World w;
  io::LocalStore store(w.machine, w.fabric);
  int node = -1;
  w.runRanks(1, [&](Env& env) {
    node = env.node().id;
    store.write(env, "a", pmpi::ConstBytes(pattern(128, 1)));
    store.write(env, "b", pmpi::ConstBytes(pattern(128, 2)));
  });
  EXPECT_EQ(store.bytesOn(node), 256u);
  store.dropNode(node);
  EXPECT_EQ(store.bytesOn(node), 0u);
  EXPECT_FALSE(store.has(node, "a"));
}

// A checkpoint that is zero past its first byte comes back whole, locally
// and from a buddy, and costs the NVMe and bytesOn() its full size, as a
// dense payload of that size does.
TEST(LocalStore, ZeroTailedPayloadRoundTripsAtFullSize) {
  World w;
  io::LocalStore store(w.machine, w.fabric);
  std::vector<std::byte> data(64 << 10);
  data[0] = std::byte{7};
  std::vector<int> nodes(2, -1);
  sim::SimTime zeroTail, dense;
  w.runRanks(2, [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    env.barrier(env.world());
    if (env.rank() == 0) {
      sim::SimTime t0 = env.ctx().now();
      store.write(env, "ckpt", pmpi::ConstBytes(data));
      zeroTail = env.ctx().now() - t0;
      t0 = env.ctx().now();
      store.write(env, "dense", pmpi::ConstBytes(pattern(data.size(), 1)));
      dense = env.ctx().now() - t0;
      std::vector<std::byte> back(16, std::byte{0xFF});
      ASSERT_TRUE(store.read(env, "ckpt", back));
      EXPECT_EQ(back, data);
      store.writeTo(env, nodes[1], "ckpt+buddy", pmpi::ConstBytes(data));
    }
    env.barrier(env.world());
    if (env.rank() == 1) {
      std::vector<std::byte> back;
      ASSERT_TRUE(store.readFrom(env, nodes[0], "ckpt", back));
      EXPECT_EQ(back, data);
      ASSERT_TRUE(store.read(env, "ckpt+buddy", back));
      EXPECT_EQ(back, data);
    }
  });
  EXPECT_GT(zeroTail, sim::SimTime::zero());
  EXPECT_EQ(zeroTail, dense);
  EXPECT_EQ(store.bytesOn(nodes[0]), 2u * (64u << 10));
  EXPECT_EQ(store.bytesOn(nodes[1]), 64u << 10);
}

TEST(LocalStore, NvmeIsFasterThanGlobalFs) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::LocalStore store(w.machine, w.fabric);
  double nvmeSec = 0, fsSec = 0;
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(32 << 20, 3);
    const double t0 = env.wtime();
    store.write(env, "local", pmpi::ConstBytes(data));
    nvmeSec = env.wtime() - t0;
    auto f = fs.create(env, "/global");
    const double t1 = env.wtime();
    fs.write(env, f, 0, data);
    fsSec = env.wtime() - t1;
  });
  EXPECT_LT(nvmeSec * 3, fsSec);  // NVMe ~1.9 GB/s vs striped spinning disks
}

// ------------------------------------------------------------------ NamStore

TEST(NamStore, PutGetThroughFabric) {
  World w;
  io::NamStore nam(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(1 << 20, 11);
    ASSERT_TRUE(nam.put(env, 0, "k", pmpi::ConstBytes(data)));
    std::vector<std::byte> back;
    ASSERT_TRUE(nam.get(env, 0, "k", back));
    EXPECT_EQ(back, data);
    EXPECT_FALSE(nam.get(env, 1, "k", back));  // other device is empty
  });
  EXPECT_EQ(nam.usedBytes(0), 1u << 20);
}

TEST(NamStore, CapacityRejectionAfterWireTrip) {
  World w;
  io::NamStore nam(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    // The NAM holds 2 GB; 3 GB must be rejected.
    std::vector<std::byte> big(16);
    bool ok = true;
    for (int i = 0; i < 3 && ok; ++i) {
      // Simulate oversize via many 800MB blobs.
      std::vector<std::byte> blob(800u << 20);
      ok = nam.put(env, 0, "blob" + std::to_string(i), pmpi::ConstBytes(blob));
    }
    EXPECT_FALSE(ok);
  });
}

// ------------------------------------------------------------------- BeeOND

TEST(Beeond, SyncWritePersistsToGlobalFs) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::BeeondCache cache(w.machine, fs, io::BeeondCache::Mode::Sync);
  w.runRanks(1, [&](Env& env) {
    cache.write(env, "/out", 0, pmpi::ConstBytes(pattern(4096, 1)));
  });
  EXPECT_EQ(fs.fileSize("/out"), 4096u);
  EXPECT_EQ(cache.pendingFlushes(), 0);
}

TEST(Beeond, AsyncWriteReturnsBeforeFlushCompletes) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::BeeondCache sync(w.machine, fs, io::BeeondCache::Mode::Sync);
  io::BeeondCache async(w.machine, fs, io::BeeondCache::Mode::Async);
  double syncSec = 0, asyncSec = 0;
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(32 << 20, 4);
    double t0 = env.wtime();
    sync.write(env, "/sync", 0, pmpi::ConstBytes(data));
    syncSec = env.wtime() - t0;
    t0 = env.wtime();
    async.write(env, "/async", 0, pmpi::ConstBytes(data));
    asyncSec = env.wtime() - t0;
    async.drain(env);
  });
  EXPECT_LT(asyncSec * 3, syncSec);
  EXPECT_EQ(fs.fileSize("/async"), 32u << 20);
  EXPECT_EQ(async.pendingFlushes(), 0);
}

// --------------------------------------------------------- failure mid-I/O

// A node failure kills two ranks while a striped global write and a NAM
// put are still in flight.  Their completions arrive after the ranks are
// gone; they must touch neither the dead ranks' stacks — which the stack
// pool hands straight to the ranks launched next — nor wake the dead
// ranks.  The ranks launched next fill their stacks with a canary pattern
// and check it once every late completion has fired.
TEST(IoFailure, LateCompletionsLeaveDeadStacksAlone) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::NamStore nam(w.machine, w.fabric);
  int inFlight = 0;
  int returned = 0;
  w.registry.add("victims", [&](Env& env) {
    const auto data = pattern(env.rank() == 0 ? 16u << 20 : 64u << 20, 3);
    if (env.rank() == 0) {
      auto f = fs.create(env, "/ckpt");
      ++inFlight;
      fs.write(env, f, 0, data);
    } else {
      ++inFlight;
      nam.put(env, 0, "ckpt", pmpi::ConstBytes(data));
    }
    ++returned;
  });
  std::vector<unsigned char*> canaries;
  int canariesIntact = 0;
  w.registry.add("canaries", [&](Env& env) {
    unsigned char fill[96 * 1024];
    std::fill(std::begin(fill), std::end(fill), 0xa5);
    canaries.push_back(fill);  // escapes: the stores must really happen
    env.ioDelay(sim::SimTime::seconds(1.0));  // outlives every completion
    canariesIntact += std::all_of(std::begin(fill), std::end(fill),
                                  [](unsigned char c) { return c == 0xa5; });
  });
  const int victims = w.rt.launch("victims", hw::NodeKind::Cluster, 2, 1).id;
  w.engine.scheduleAt(sim::SimTime::ms(1), [&] {
    EXPECT_EQ(inFlight, 2);
    w.rt.killJob(victims);
    // Launched once the killed ranks are reaped, onto their pooled stacks.
    w.engine.schedule(sim::SimTime::us(1), [&] {
      w.rt.launch("canaries", hw::NodeKind::Cluster, 2, 1);
    });
  });
  w.run();
  EXPECT_EQ(returned, 0);
  EXPECT_EQ(canariesIntact, 2);
  EXPECT_TRUE(w.rt.jobDone(victims));
  EXPECT_EQ(fs.stats().chunkWrites, 16u);  // the write did go out
}

TEST(Beeond, ReadHitsLocalCache) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::BeeondCache cache(w.machine, fs, io::BeeondCache::Mode::Sync);
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(8 << 20, 6);
    cache.write(env, "/hot", 0, pmpi::ConstBytes(data));
    EXPECT_TRUE(cache.cachedOn(env.node().id, "/hot"));
    const double t0 = env.wtime();
    std::vector<std::byte> back(data.size());
    cache.read(env, "/hot", 0, back);
    const double cachedSec = env.wtime() - t0;
    EXPECT_EQ(back, data);
    // Cached read: NVMe speed, far below the disk-array read path.
    auto f = fs.open(env, "/hot");
    const double t1 = env.wtime();
    fs.read(env, f, 0, back);
    EXPECT_LT(cachedSec * 3, env.wtime() - t1);
  });
}

}  // namespace
