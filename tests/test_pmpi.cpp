// Tests for the pmpi library: the World construction path, point-to-point
// semantics and Fig. 3 latency calibration, protocol switching,
// collectives, communicator management, and the Cluster-Booster offload
// mechanism (MPI_Comm_spawn + inter-communicators).

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "obs/tracer.hpp"
#include "pmpi/request_pool.hpp"
#include "sim/rng.hpp"
#include "world_fixture.hpp"

namespace {

using namespace cbsim;
using namespace cbsim::sim::literals;
using cbsim::testing::World;
using pmpi::AnySource;
using pmpi::AnyTag;
using pmpi::Comm;
using pmpi::Env;
using sim::SimTime;

// ---- World ------------------------------------------------------------------

TEST(PmpiWorld, RunsApps) {
  pmpi::World w(hw::MachineConfig::deepEr(2, 2));
  int ranks = 0;
  w.registry.add("hello", [&](Env& env) { ranks += 1 + 0 * env.rank(); });
  w.rt.launch("hello", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(ranks, 2);
}

TEST(PmpiWorld, RunThrowsOnDeadlock) {
  pmpi::World w(hw::MachineConfig::deepEr(2, 2));
  w.registry.add("stuck", [&](Env& env) {
    std::byte b{};
    env.recv(env.world(), 1, 1, pmpi::Bytes(&b, 1));  // nobody sends
  });
  w.rt.launch("stuck", hw::NodeKind::Cluster, 2);
  try {
    w.run();
    FAIL() << "a deadlocked run must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("first blocked process: stuck:j0:r"),
              std::string::npos)
        << e.what();
  }
}

// ---- Point-to-point ---------------------------------------------------------

TEST(Pmpi, WorldRankAndSize) {
  World w;
  std::vector<int> seen(4, -1);
  w.registry.add("app", [&](Env& e) {
    seen[static_cast<std::size_t>(e.rank())] = e.size();
    EXPECT_EQ(e.node().kind, hw::NodeKind::Cluster);
    EXPECT_FALSE(e.parent().valid());
  });
  w.rt.launch("app", hw::NodeKind::Cluster, 4);
  w.run();
  EXPECT_EQ(seen, (std::vector<int>{4, 4, 4, 4}));
}

TEST(Pmpi, SmallMessageLatencyMatchesTableI) {
  // Table I: MPI latency 1.0 us on the Cluster, 1.8 us on the Booster;
  // Fig. 3 shows ~1.4 us for CN-BN.
  struct Case {
    hw::NodeKind kind;
    double expectUs;
  };
  for (const Case c : {Case{hw::NodeKind::Cluster, 1.0},
                       Case{hw::NodeKind::Booster, 1.8}}) {
    World w;
    double measured = -1;
    w.registry.add("lat", [&](Env& e) {
      std::byte b{};
      if (e.rank() == 0) {
        const double t0 = e.wtime();
        e.send(e.world(), 1, 1, pmpi::ConstBytes(&b, 1));
        e.recv(e.world(), 1, 2, pmpi::Bytes(&b, 1));
        measured = (e.wtime() - t0) / 2.0 * 1e6;
      } else {
        e.recv(e.world(), 0, 1, pmpi::Bytes(&b, 1));
        e.send(e.world(), 0, 2, pmpi::ConstBytes(&b, 1));
      }
    });
    w.rt.launch("lat", c.kind, 2);
    w.run();
    EXPECT_NEAR(measured, c.expectUs, 0.05)
        << "kind=" << hw::toString(c.kind);
  }
}

TEST(Pmpi, CrossModuleLatencyBetweenCurves) {
  World w;
  double measured = -1;
  w.registry.add("xlat", [&](Env& e) {
    std::byte b{};
    const Comm p = e.parent();
    if (!p.valid()) {
      // Cluster-side parent spawns one Booster child.
      const Comm inter = e.commSpawn("xlat", 1);
      const double t0 = e.wtime();
      e.send(inter, 0, 1, pmpi::ConstBytes(&b, 1));
      e.recv(inter, 0, 2, pmpi::Bytes(&b, 1));
      measured = (e.wtime() - t0) / 2.0 * 1e6;
    } else {
      e.recv(p, 0, 1, pmpi::Bytes(&b, 1));
      e.send(p, 0, 2, pmpi::ConstBytes(&b, 1));
    }
  });
  w.rt.launch("xlat", hw::NodeKind::Cluster, 1);
  w.run();
  EXPECT_NEAR(measured, 1.4, 0.05);
}

TEST(Pmpi, TypedRoundtripPreservesData) {
  World w;
  std::vector<double> got(8);
  w.registry.add("typed", [&](Env& e) {
    if (e.rank() == 0) {
      std::vector<double> v(8);
      std::iota(v.begin(), v.end(), 1.5);
      e.send(e.world(), 1, 7, std::span<const double>(v));
    } else {
      const auto st = e.recv(e.world(), 0, 7, std::span<double>(got));
      EXPECT_EQ(st.bytes, 8 * sizeof(double));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
    }
  });
  w.rt.launch("typed", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_DOUBLE_EQ(got[0], 1.5);
  EXPECT_DOUBLE_EQ(got[7], 8.5);
}

TEST(Pmpi, UnexpectedMessageIsBuffered) {
  World w;
  int got = 0;
  w.registry.add("unexp", [&](Env& e) {
    if (e.rank() == 0) {
      e.sendValue(e.world(), 1, 3, 42);
    } else {
      e.ctx().delay(50_us);  // recv posted long after arrival
      got = e.recvValue<int>(e.world(), 0, 3);
    }
  });
  w.rt.launch("unexp", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(got, 42);
}

TEST(Pmpi, WildcardSourceAndTag) {
  World w;
  std::vector<int> sources;
  w.registry.add("wild", [&](Env& e) {
    if (e.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const auto st = e.recv(e.world(), AnySource, AnyTag,
                               std::span<int>(&v, 1));
        sources.push_back(st.source);
        EXPECT_EQ(v, st.source * 10);
      }
    } else {
      e.ctx().delay(SimTime::us(e.rank()));  // deterministic arrival order
      e.sendValue(e.world(), 0, e.rank(), e.rank() * 10);
    }
  });
  w.rt.launch("wild", hw::NodeKind::Cluster, 3);
  w.run();
  EXPECT_EQ(sources, (std::vector<int>{1, 2}));
}

TEST(Pmpi, NonOvertakingSamePair) {
  World w;
  std::vector<int> order;
  w.registry.add("order", [&](Env& e) {
    if (e.rank() == 0) {
      for (int i = 0; i < 5; ++i) e.sendValue(e.world(), 1, 9, i);
    } else {
      for (int i = 0; i < 5; ++i) {
        order.push_back(e.recvValue<int>(e.world(), 0, 9));
      }
    }
  });
  w.rt.launch("order", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Pmpi, RendezvousHandshakeCostsMoreThanEager) {
  // Around the eager threshold the rendezvous adds an RTS/CTS round trip.
  auto oneWayUs = [](std::size_t bytes) {
    World w;
    double t = -1;
    w.registry.add("p", [&, bytes](Env& e) {
      std::vector<std::byte> buf(bytes);
      if (e.rank() == 0) {
        e.send(e.world(), 1, 1, pmpi::ConstBytes(buf));
      } else {
        const double t0 = e.wtime();
        e.recv(e.world(), 0, 1, pmpi::Bytes(buf));
        t = (e.wtime() - t0) * 1e6;
      }
    });
    w.rt.launch("p", hw::NodeKind::Cluster, 2);
    w.run();
    return t;
  };
  const double eager = oneWayUs(8192);
  const double rdv = oneWayUs(8193);
  EXPECT_GT(rdv, eager + 0.5);  // extra control round trip >= ~0.9 us
}

TEST(Pmpi, SsendCompletesOnlyAfterMatch) {
  World w;
  double sendDone = -1;
  w.registry.add("sync", [&](Env& e) {
    std::byte b{};
    if (e.rank() == 0) {
      e.ssend(e.world(), 1, 1, pmpi::ConstBytes(&b, 1));
      sendDone = e.wtime() * 1e6;
    } else {
      e.ctx().delay(100_us);  // receiver is late
      e.recv(e.world(), 0, 1, pmpi::Bytes(&b, 1));
    }
  });
  w.rt.launch("sync", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_GT(sendDone, 100.0);  // blocked until the receive matched
}

TEST(Pmpi, IsendIrecvWaitAllOverlap) {
  World w;
  std::vector<int> got(4);
  w.registry.add("nb", [&](Env& e) {
    if (e.rank() == 0) {
      std::vector<int> vals = {10, 11, 12, 13};
      std::vector<pmpi::Request> reqs;
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(e.isend(e.world(), 1, i,
                               std::span<const int>(&vals[static_cast<std::size_t>(i)], 1)));
      }
      e.waitAll(reqs);
    } else {
      std::vector<pmpi::Request> reqs;
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(e.irecv(e.world(), 0, i,
                               std::span<int>(&got[static_cast<std::size_t>(i)], 1)));
      }
      e.waitAll(reqs);
    }
  });
  w.rt.launch("nb", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13}));
}

TEST(Pmpi, TestReturnsWithoutBlocking) {
  World w;
  bool doneBefore = true;
  w.registry.add("t", [&](Env& e) {
    if (e.rank() == 0) {
      int v = 0;
      const auto r = e.irecv(e.world(), 1, 1, std::span<int>(&v, 1));
      doneBefore = e.test(r);
      e.wait(r);
      EXPECT_TRUE(e.test(r));
      EXPECT_EQ(v, 5);
    } else {
      e.ctx().delay(10_us);
      e.sendValue(e.world(), 0, 1, 5);
    }
  });
  w.rt.launch("t", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_FALSE(doneBefore);
}

TEST(Pmpi, WaitAnyReturnsFirstCompletion) {
  World w;
  std::size_t firstIdx = 99;
  w.registry.add("any", [&](Env& env) {
    if (env.rank() == 0) {
      int a = 0, b = 0;
      std::vector<pmpi::Request> rs = {
          env.irecv(env.world(), 1, 1, std::span<int>(&a, 1)),
          env.irecv(env.world(), 1, 2, std::span<int>(&b, 1))};
      firstIdx = env.waitAny(rs);
      env.waitAll(rs);
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 20);
    } else {
      env.ctx().delay(5_us);
      env.sendValue(env.world(), 0, 2, 20);  // tag 2 lands first
      env.ctx().delay(20_us);
      env.sendValue(env.world(), 0, 1, 10);
    }
  });
  w.rt.launch("any", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(firstIdx, 1u);  // the tag-2 request completed first
}

TEST(Pmpi, IprobeSeesPendingMessageWithoutConsuming) {
  World w;
  w.registry.add("probe", [&](Env& env) {
    if (env.rank() == 0) {
      env.sendValue(env.world(), 1, 7, 42);
    } else {
      EXPECT_FALSE(env.iprobe(env.world(), 0, 7));  // nothing arrived yet
      env.ctx().delay(50_us);
      pmpi::Status st;
      ASSERT_TRUE(env.iprobe(env.world(), 0, 7, &st));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.bytes, sizeof(int));
      ASSERT_TRUE(env.iprobe(env.world(), 0, 7));   // probe does not consume
      EXPECT_EQ(env.recvValue<int>(env.world(), 0, 7), 42);
      EXPECT_FALSE(env.iprobe(env.world(), 0, 7));  // recv did
    }
  });
  w.rt.launch("probe", hw::NodeKind::Cluster, 2);
  w.run();
}

TEST(Pmpi, ScanComputesPrefixSums) {
  World w(hw::MachineConfig::deepEr(8, 2));
  std::vector<double> prefix(5, -1);
  w.registry.add("scan", [&](Env& env) {
    const double mine = env.rank() + 1.0;
    prefix[static_cast<std::size_t>(env.rank())] =
        env.scanValue(env.world(), mine, pmpi::Op::Sum);
  });
  w.rt.launch("scan", hw::NodeKind::Cluster, 5);
  w.run();
  EXPECT_EQ(prefix, (std::vector<double>{1, 3, 6, 10, 15}));
}

TEST(Pmpi, ScanMaxIsRunningMaximum) {
  World w(hw::MachineConfig::deepEr(8, 2));
  std::vector<int> runMax(4, -1);
  w.registry.add("scanmax", [&](Env& env) {
    const int vals[4] = {3, 7, 2, 5};
    runMax[static_cast<std::size_t>(env.rank())] = env.scanValue(
        env.world(), vals[env.rank()], pmpi::Op::Max);
  });
  w.rt.launch("scanmax", hw::NodeKind::Cluster, 4);
  w.run();
  EXPECT_EQ(runMax, (std::vector<int>{3, 7, 7, 7}));
}

TEST(Pmpi, SendRecvExchanges) {
  World w;
  std::vector<int> got(2, -1);
  w.registry.add("xch", [&](Env& e) {
    const int peer = 1 - e.rank();
    const int mine = e.rank() * 100;
    int theirs = -1;
    e.sendRecv(e.world(), peer, 1, pmpi::ConstBytes(std::as_bytes(std::span<const int>(&mine, 1))),
               peer, 1, pmpi::Bytes(std::as_writable_bytes(std::span<int>(&theirs, 1))));
    got[static_cast<std::size_t>(e.rank())] = theirs;
  });
  w.rt.launch("xch", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(got[0], 100);
  EXPECT_EQ(got[1], 0);
}

TEST(Pmpi, TruncatingReceiveThrows) {
  World w;
  w.registry.add("trunc", [&](Env& e) {
    if (e.rank() == 0) {
      std::vector<int> v(4, 1);
      e.send(e.world(), 1, 1, std::span<const int>(v));
    } else {
      int small = 0;
      e.recv(e.world(), 0, 1, std::span<int>(&small, 1));
    }
  });
  w.rt.launch("trunc", hw::NodeKind::Cluster, 2);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(Pmpi, SelfSendEagerWorks) {
  World w;
  int got = 0;
  w.registry.add("self", [&](Env& e) {
    e.sendValue(e.world(), 0, 1, 77);
    got = e.recvValue<int>(e.world(), 0, 1);
  });
  w.rt.launch("self", hw::NodeKind::Cluster, 1);
  w.run();
  EXPECT_EQ(got, 77);
}

// ---- Collectives -------------------------------------------------------------

class CollectiveSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Pmpi, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST_P(CollectiveSizes, Bcast) {
  const int n = GetParam();
  World w(hw::MachineConfig::deepEr(8, 8));
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  const int root = (n - 1) / 2;
  w.registry.add("bcast", [&](Env& e) {
    std::vector<double> data(16, 0.0);
    if (e.rank() == root) {
      std::iota(data.begin(), data.end(), 0.5);
    }
    e.bcast(e.world(), root, std::span<double>(data));
    got[static_cast<std::size_t>(e.rank())] = data;
  });
  w.rt.launch("bcast", hw::NodeKind::Cluster, n);
  w.run();
  for (const auto& v : got) {
    ASSERT_EQ(v.size(), 16u);
    EXPECT_DOUBLE_EQ(v[0], 0.5);
    EXPECT_DOUBLE_EQ(v[15], 15.5);
  }
}

TEST_P(CollectiveSizes, ReduceSum) {
  const int n = GetParam();
  World w(hw::MachineConfig::deepEr(8, 8));
  double result = -1;
  w.registry.add("reduce", [&](Env& e) {
    const double mine = e.rank() + 1;
    double out = 0;
    e.reduce(e.world(), 0, std::span<const double>(&mine, 1),
             std::span<double>(&out, 1), pmpi::Op::Sum);
    if (e.rank() == 0) result = out;
  });
  w.rt.launch("reduce", hw::NodeKind::Cluster, n);
  w.run();
  EXPECT_DOUBLE_EQ(result, n * (n + 1) / 2.0);
}

TEST_P(CollectiveSizes, AllreduceMinMax) {
  const int n = GetParam();
  World w(hw::MachineConfig::deepEr(8, 8));
  std::vector<double> mins(static_cast<std::size_t>(n)), maxs(static_cast<std::size_t>(n));
  w.registry.add("ar", [&](Env& e) {
    const double mine = 10.0 + e.rank();
    mins[static_cast<std::size_t>(e.rank())] =
        e.allreduceValue(e.world(), mine, pmpi::Op::Min);
    maxs[static_cast<std::size_t>(e.rank())] =
        e.allreduceValue(e.world(), mine, pmpi::Op::Max);
  });
  w.rt.launch("ar", hw::NodeKind::Cluster, n);
  w.run();
  for (int r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ(mins[static_cast<std::size_t>(r)], 10.0);
    EXPECT_DOUBLE_EQ(maxs[static_cast<std::size_t>(r)], 10.0 + n - 1);
  }
}

TEST_P(CollectiveSizes, GatherScatterRoundtrip) {
  const int n = GetParam();
  World w(hw::MachineConfig::deepEr(8, 8));
  std::vector<int> scattered(static_cast<std::size_t>(n), -1);
  w.registry.add("gs", [&](Env& e) {
    const int mine = e.rank() * e.rank();
    std::vector<int> all(static_cast<std::size_t>(n));
    e.gather(e.world(), 0, std::span<const int>(&mine, 1), std::span<int>(all));
    if (e.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)], i * i);
        all[static_cast<std::size_t>(i)] += 1;
      }
    }
    int back = -1;
    e.scatter(e.world(), 0, std::span<const int>(all), std::span<int>(&back, 1));
    scattered[static_cast<std::size_t>(e.rank())] = back;
  });
  w.rt.launch("gs", hw::NodeKind::Cluster, n);
  w.run();
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(scattered[static_cast<std::size_t>(r)], r * r + 1);
  }
}

TEST_P(CollectiveSizes, AllgatherRing) {
  const int n = GetParam();
  World w(hw::MachineConfig::deepEr(8, 8));
  std::vector<std::vector<int>> got(static_cast<std::size_t>(n));
  w.registry.add("ag", [&](Env& e) {
    std::vector<int> mine = {e.rank(), e.rank() + 100};
    std::vector<int> all(static_cast<std::size_t>(2 * n));
    e.allgather(e.world(), std::span<const int>(mine), std::span<int>(all));
    got[static_cast<std::size_t>(e.rank())] = all;
  });
  w.rt.launch("ag", hw::NodeKind::Cluster, n);
  w.run();
  for (int r = 0; r < n; ++r) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(2 * i)], i);
      EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(2 * i + 1)], i + 100);
    }
  }
}

TEST_P(CollectiveSizes, AlltoallTransposes) {
  const int n = GetParam();
  World w(hw::MachineConfig::deepEr(8, 8));
  std::vector<std::vector<int>> got(static_cast<std::size_t>(n));
  w.registry.add("a2a", [&](Env& e) {
    std::vector<int> in(static_cast<std::size_t>(n)), out(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      in[static_cast<std::size_t>(i)] = e.rank() * 100 + i;
    }
    e.alltoall(e.world(), std::span<const int>(in), std::span<int>(out));
    got[static_cast<std::size_t>(e.rank())] = out;
  });
  w.rt.launch("a2a", hw::NodeKind::Cluster, n);
  w.run();
  for (int r = 0; r < n; ++r) {
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)], s * 100 + r);
    }
  }
}

TEST(Pmpi, BarrierSynchronizes) {
  World w;
  std::vector<double> leaveUs(3);
  w.registry.add("bar", [&](Env& e) {
    e.ctx().delay(SimTime::us(10 * (e.rank() + 1)));
    e.barrier(e.world());
    leaveUs[static_cast<std::size_t>(e.rank())] = e.wtime() * 1e6;
  });
  w.rt.launch("bar", hw::NodeKind::Cluster, 3);
  w.run();
  // Nobody leaves before the slowest rank arrived (30 us).
  for (const double t : leaveUs) EXPECT_GE(t, 30.0);
}

// ---- Communicator management ---------------------------------------------------

TEST(Pmpi, CommSplitFormsColorGroups) {
  World w(hw::MachineConfig::deepEr(8, 2));
  std::vector<int> subRank(6, -1), subSize(6, -1);
  std::vector<double> subSum(6, -1);
  w.registry.add("split", [&](Env& e) {
    const int color = e.rank() % 2;
    const Comm sub = e.commSplit(e.world(), color, e.rank());
    const std::size_t r = static_cast<std::size_t>(e.rank());
    subRank[r] = e.commRank(sub);
    subSize[r] = e.commSize(sub);
    subSum[r] = e.allreduceValue(sub, static_cast<double>(e.rank()), pmpi::Op::Sum);
  });
  w.rt.launch("split", hw::NodeKind::Cluster, 6);
  w.run();
  // Evens {0,2,4} and odds {1,3,5}.
  EXPECT_EQ(subSize, (std::vector<int>{3, 3, 3, 3, 3, 3}));
  EXPECT_EQ(subRank, (std::vector<int>{0, 0, 1, 1, 2, 2}));
  EXPECT_DOUBLE_EQ(subSum[0], 6.0);   // 0+2+4
  EXPECT_DOUBLE_EQ(subSum[1], 9.0);   // 1+3+5
}

TEST(Pmpi, CommDupIsIndependent) {
  World w;
  int got = -1;
  w.registry.add("dup", [&](Env& e) {
    const Comm d = e.commDup(e.world());
    EXPECT_NE(d.id(), e.world().id());
    EXPECT_EQ(e.commRank(d), e.rank());
    // Same tag on both comms: matching must respect the communicator.
    if (e.rank() == 0) {
      e.sendValue(e.world(), 1, 5, 1);
      e.sendValue(d, 1, 5, 2);
    } else {
      got = e.recvValue<int>(d, 0, 5);   // must get 2, not 1
      (void)e.recvValue<int>(e.world(), 0, 5);
    }
  });
  w.rt.launch("dup", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(got, 2);
}

// ---- Spawn / intercommunicators --------------------------------------------------

TEST(Pmpi, CommSpawnBoosterFromCluster) {
  World w;
  std::vector<int> childNodes;
  int parentRemote = -1, childRemote = -1, echo = -1;
  w.registry.add("parent", [&](Env& e) {
    const Comm inter = e.commSpawn("child", 2);
    parentRemote = e.commRemoteSize(inter);
    e.sendValue(inter, 0, 1, 123);
    echo = e.recvValue<int>(inter, 1, 2);
  });
  w.registry.add("child", [&](Env& e) {
    const Comm up = e.parent();
    ASSERT_TRUE(up.valid());
    childRemote = e.commRemoteSize(up);
    EXPECT_EQ(e.node().kind, hw::NodeKind::Booster);
    childNodes.push_back(e.node().id);
    if (e.rank() == 0) {
      const int v = e.recvValue<int>(up, 0, 1);
      e.sendValue(e.world(), 1, 9, v);
    } else {
      const int v = e.recvValue<int>(e.world(), 0, 9);
      e.sendValue(up, 0, 2, v + 1);
    }
  });
  w.rt.launch("parent", hw::NodeKind::Cluster, 1);
  w.run();
  EXPECT_EQ(parentRemote, 2);
  EXPECT_EQ(childRemote, 1);
  EXPECT_EQ(echo, 124);
  EXPECT_EQ(childNodes.size(), 2u);
}

TEST(Pmpi, SpawnConsumesStartupTime) {
  World w;
  double childStart = -1;
  w.registry.add("p", [&](Env& e) { e.commSpawn("c", 4); });
  w.registry.add("c", [&](Env& e) {
    if (e.rank() == 0) childStart = e.wtime();
  });
  w.rt.launch("p", hw::NodeKind::Cluster, 1);
  w.run();
  // spawnBase (5 ms) + 4 x spawnPerProc (0.5 ms).
  EXPECT_NEAR(childStart, 0.007, 1e-6);
}

TEST(Pmpi, SpawnReleasesNodesWhenChildExits) {
  World w;
  w.registry.add("p", [&](Env& e) { e.commSpawn("c", 4); });
  w.registry.add("c", [&](Env&) {});
  w.rt.launch("p", hw::NodeKind::Cluster, 1);
  w.run();
  EXPECT_EQ(w.rm.freeCount(hw::NodeKind::Booster), 4);
  EXPECT_EQ(w.rm.freeCount(hw::NodeKind::Cluster), 4);
}

TEST(Pmpi, SpawnFailsWhenPartitionExhausted) {
  World w;
  w.registry.add("p", [&](Env& e) { e.commSpawn("c", 99); });
  w.registry.add("c", [&](Env&) {});
  w.rt.launch("p", hw::NodeKind::Cluster, 1);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(Pmpi, SpawnIsCollectiveAllRanksGetIntercomm) {
  World w;
  std::vector<int> remoteSizes(3, -1);
  w.registry.add("p", [&](Env& e) {
    const Comm inter = e.commSpawn("c", 2);
    remoteSizes[static_cast<std::size_t>(e.rank())] = e.commRemoteSize(inter);
    e.barrier(e.world());
  });
  w.registry.add("c", [&](Env&) {});
  w.rt.launch("p", hw::NodeKind::Cluster, 3);
  w.run();
  EXPECT_EQ(remoteSizes, (std::vector<int>{2, 2, 2}));
}

TEST(Pmpi, JobTimesSeparateComputeAndComm) {
  World w;
  w.registry.add("acct", [&](Env& e) {
    hw::Work wk;
    wk.flops = 960e9;  // 1 s on a Haswell node at full threads
    e.compute(wk);
    if (e.rank() == 0) {
      std::byte b{};
      e.send(e.world(), 1, 1, pmpi::ConstBytes(&b, 1));
    } else {
      std::byte b{};
      e.recv(e.world(), 0, 1, pmpi::Bytes(&b, 1));
    }
  });
  const auto& job = w.rt.launch("acct", hw::NodeKind::Cluster, 2);
  w.run();
  const auto t = w.rt.jobTimes(job.id);
  EXPECT_NEAR(t.computeSec, 2.0, 1e-6);
  EXPECT_GT(t.commSec, 0.0);
  EXPECT_LT(t.commSec, 0.01);
}

TEST(Pmpi, SpawnOntoExplicitNodes) {
  World w;
  std::vector<int> childNodes;
  w.registry.add("pinned", [&](Env& e) { childNodes.push_back(e.node().id); });
  w.registry.add("launcher", [&](Env& e) {
    pmpi::SpawnOptions opts;
    const auto bns = e.runtime().machine().nodesOfKind(hw::NodeKind::Booster);
    opts.nodes = {bns[1], bns[3]};  // pin to specific Booster nodes
    e.commSpawn("pinned", 2, opts);
  });
  w.rt.launch("launcher", hw::NodeKind::Cluster, 1);
  w.run();
  const auto bns = w.machine.nodesOfKind(hw::NodeKind::Booster);
  ASSERT_EQ(childNodes.size(), 2u);
  EXPECT_EQ(childNodes[0], bns[1]);
  EXPECT_EQ(childNodes[1], bns[3]);
}

TEST(Pmpi, SpawnOntoBusyExplicitNodesFails) {
  World w;
  w.registry.add("sleeper", [](Env& e) { e.ctx().delay(SimTime::sec(1)); });
  w.registry.add("grabber", [&](Env& e) {
    pmpi::SpawnOptions opts;
    opts.nodes = {0};  // node 0 is held by this very job
    e.commSpawn("sleeper", 1, opts);
  });
  w.rt.launch("grabber", hw::NodeKind::Cluster, 1);  // lands on node 0
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(Pmpi, RunUntilPausesAndResumesMidConversation) {
  World w;
  int received = 0;
  w.registry.add("slowtalk", [&](Env& e) {
    if (e.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        e.ctx().delay(SimTime::ms(10));
        e.sendValue(e.world(), 1, 1, i);
      }
    } else {
      for (int i = 0; i < 3; ++i) {
        (void)e.recvValue<int>(e.world(), 0, 1);
        ++received;
      }
    }
  });
  w.rt.launch("slowtalk", hw::NodeKind::Cluster, 2);
  w.engine.runUntil(SimTime::ms(15));
  EXPECT_EQ(received, 1);  // only the first message landed so far
  w.run();                 // resume to completion
  EXPECT_EQ(received, 3);
}

TEST(Pmpi, InvalidCommIsRejected) {
  World w;
  w.registry.add("invalid", [&](Env& e) {
    std::byte b{};
    e.send(pmpi::Comm{}, 0, 1, pmpi::ConstBytes(&b, 1));
  });
  w.rt.launch("invalid", hw::NodeKind::Cluster, 1);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(Pmpi, ProcsPerNodeSplitsThreads) {
  World w;
  std::vector<int> threads(4, 0), nodes(4, -1);
  w.registry.add("ppn", [&](Env& e) {
    threads[static_cast<std::size_t>(e.rank())] = e.threads();
    nodes[static_cast<std::size_t>(e.rank())] = e.node().id;
  });
  w.rt.launch("ppn", hw::NodeKind::Cluster, 2, /*procsPerNode=*/2);
  w.run();
  // Haswell: 48 threads / 2 procs = 24 each; ranks 0,1 on node 0.
  EXPECT_EQ(threads, (std::vector<int>{24, 24, 24, 24}));
  EXPECT_EQ(nodes[0], nodes[1]);
  EXPECT_NE(nodes[1], nodes[2]);
}

// ---- Matching order (MPI non-overtaking rule) -------------------------------
//
// These pin the FIFO semantics of the unexpected/posted queues after the
// tombstone+compact rewrite (pmpi/match_fifo.hpp): extracting a message
// from the middle of the queue must not reorder what remains.

TEST(PmpiMatchOrder, UnexpectedQueueStaysFifoAcrossTagExtraction) {
  World w;
  std::vector<std::int64_t> got;
  w.registry.add("order", [&](Env& env) {
    const Comm c = env.world();
    if (env.rank() == 0) {
      const int tags[5] = {5, 7, 5, 7, 5};
      for (std::int64_t i = 0; i < 5; ++i) {
        env.send(c, 1, tags[i], std::as_bytes(std::span(&i, 1)));
      }
    } else {
      // Let all five land in the unexpected queue first.
      env.computeDelay(1_ms);
      auto recvOne = [&](int tag) {
        std::int64_t v = -1;
        env.recv(c, 0, tag, std::as_writable_bytes(std::span(&v, 1)));
        got.push_back(v);
      };
      recvOne(7);       // first tag-7 message: payload 1 (skips payload 0)
      recvOne(AnyTag);  // oldest remaining: payload 0, behind a tombstone
      recvOne(7);       // payload 3
      recvOne(AnyTag);  // payload 2
      recvOne(AnyTag);  // payload 4
    }
  });
  w.rt.launch("order", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 0, 3, 2, 4}));
}

TEST(PmpiMatchOrder, PostedQueueMatchesEarliestCompatibleRecv) {
  World w;
  std::int64_t b1 = -1, b2 = -1, b3 = -1;
  w.registry.add("posted", [&](Env& env) {
    const Comm c = env.world();
    if (env.rank() == 1) {
      // Three posted receives with overlapping filters; matching must walk
      // them in posting order per message, skipping incompatible ones.
      const pmpi::Request r1 =
          env.irecv(c, 0, AnyTag, std::as_writable_bytes(std::span(&b1, 1)));
      const pmpi::Request r2 =
          env.irecv(c, 0, 5, std::as_writable_bytes(std::span(&b2, 1)));
      const pmpi::Request r3 =
          env.irecv(c, 0, AnyTag, std::as_writable_bytes(std::span(&b3, 1)));
      const pmpi::Request rs[3] = {r1, r2, r3};
      env.waitAll(rs);
    } else {
      std::int64_t v;
      v = 100;  // tag 5: earliest compatible is r1 (AnyTag)
      env.send(c, 1, 5, std::as_bytes(std::span(&v, 1)));
      v = 200;  // tag 9: r2 filters tag 5, so this lands in r3
      env.send(c, 1, 9, std::as_bytes(std::span(&v, 1)));
      v = 300;  // tag 5 again: now r2, the tombstoned middle slot's neighbour
      env.send(c, 1, 5, std::as_bytes(std::span(&v, 1)));
    }
  });
  w.rt.launch("posted", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(b1, 100);
  EXPECT_EQ(b3, 200);
  EXPECT_EQ(b2, 300);
}

TEST(PmpiMatchOrder, FifoSurvivesRetransmitsOnALossyFabric) {
  // Drops force retransmits, which arrive out of wire order; the
  // transport's reorder buffer must still release frames to matching in
  // send order, so the tag-extraction FIFO semantics are unchanged.
  pmpi::ProtocolParams params;
  params.reliable = true;
  params.retransmitTimeout = SimTime::us(200);
  World w(hw::MachineConfig::deepEr(4, 4), params);
  fault::FaultPlan plan;
  plan.dropProb = 0.25;
  w.fabric.setFaultPlan(&plan);
  constexpr int kMsgs = 16;
  std::vector<std::int64_t> got;
  w.registry.add("lossy-order", [&](Env& env) {
    const Comm c = env.world();
    if (env.rank() == 0) {
      for (std::int64_t i = 0; i < kMsgs; ++i) {
        env.send(c, 1, i % 2 == 0 ? 5 : 7, std::as_bytes(std::span(&i, 1)));
      }
    } else {
      env.computeDelay(20_ms);  // let every frame settle (retransmits included)
      auto recvOne = [&](int tag) {
        std::int64_t v = -1;
        env.recv(c, 0, tag, std::as_writable_bytes(std::span(&v, 1)));
        got.push_back(v);
      };
      // Drain all odd payloads via tag 7 first, then the rest wildcard.
      for (int i = 0; i < kMsgs / 2; ++i) recvOne(7);
      for (int i = 0; i < kMsgs / 2; ++i) recvOne(AnyTag);
    }
  });
  w.rt.launch("lossy-order", hw::NodeKind::Cluster, 2);
  w.run();
  std::vector<std::int64_t> expected;
  for (std::int64_t i = 1; i < kMsgs; i += 2) expected.push_back(i);
  for (std::int64_t i = 0; i < kMsgs; i += 2) expected.push_back(i);
  EXPECT_EQ(got, expected);
  EXPECT_GT(w.fabric.stats().retransmits, 0u);
}

TEST(PmpiMatchOrder, WildcardReceiverSurvivesATenThousandPostBurst) {
  // A long-lived wildcard receive (tag 999) stays posted while 10,000
  // other-tag messages flood the unexpected queue.  The queue must balloon,
  // keep FIFO matching through the interleaved compactions, record its
  // peak depth in the memory telemetry, and hand the ballooned capacity
  // back once the burst drains — a 100k-rank world cannot afford one rank's
  // worst historical queue depth as a permanent charge.
  World w;
  constexpr int kBurst = 10000;
  std::size_t peakEntries = 0;
  std::size_t bytesAtPeak = 0;
  std::size_t bytesAfterDrain = 0;
  w.registry.add("burst", [&](Env& env) {
    const Comm c = env.world();
    if (env.rank() == 0) {
      for (std::int64_t i = 0; i < kBurst; ++i) {
        env.send(c, 1, 7, std::as_bytes(std::span(&i, 1)));
      }
      std::int64_t fin = 424242;
      env.send(c, 1, 999, std::as_bytes(std::span(&fin, 1)));
    } else {
      std::int64_t fin = -1;
      const pmpi::Request wildcard = env.irecv(
          c, AnySource, 999, std::as_writable_bytes(std::span(&fin, 1)));
      // Channel delivery is FIFO, so once the trailing tag-999 message has
      // matched the wildcard, the full burst is sitting unexpected.
      env.wait(wildcard);
      EXPECT_EQ(fin, 424242);
      bytesAtPeak = w.rt.memoryStats().matchQueueBytes;
      std::int64_t v = -1;
      for (int i = 0; i < kBurst; ++i) {
        env.recv(c, 0, 7, std::as_writable_bytes(std::span(&v, 1)));
        ASSERT_EQ(v, static_cast<std::int64_t>(i));
      }
      const pmpi::Runtime::MemoryStats mem = w.rt.memoryStats();
      peakEntries = mem.matchQueuePeakEntries;
      bytesAfterDrain = mem.matchQueueBytes;
    }
  });
  w.rt.launch("burst", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_GE(peakEntries, static_cast<std::size_t>(kBurst));
  EXPECT_GT(bytesAtPeak, static_cast<std::size_t>(kBurst) * sizeof(void*));
  // The drained queue gave back the burst's backing store.
  EXPECT_LT(bytesAfterDrain, bytesAtPeak / 4);
}

TEST(PmpiMemory, EmptyEagerPayloadDoesNotPinTheArena) {
  // Ping-pongs of 1..100 bytes, each drained before the next: a rank's
  // eager arena resets whenever it holds no payload, so its peak is the
  // largest single message.  A zero-byte message sent first holds no bytes
  // and must not keep the arena from resetting, or every later size is
  // appended to it.
  const auto arenaPeak = [](bool emptyFirst) {
    World w;
    w.runRanks(2, [&](Env& env) {
      const Comm c = env.world();
      if (emptyFirst) {
        if (env.rank() == 0) {
          env.send(c, 1, 1, pmpi::ConstBytes{});
        } else {
          env.recv(c, 0, 1, pmpi::Bytes{});
        }
      }
      std::vector<std::byte> buf(100);
      for (std::size_t n = 1; n <= buf.size(); ++n) {
        const std::span<std::byte> msg(buf.data(), n);
        if (env.rank() == 0) {
          env.send(c, 1, 2, msg);
          env.recv(c, 1, 2, msg);
        } else {
          env.recv(c, 0, 2, msg);
          env.send(c, 0, 2, msg);
        }
      }
    });
    return w.rt.memoryStats().payloadArenaPeakBytes;
  };
  const std::size_t paced = arenaPeak(false);
  EXPECT_LE(paced, 2 * 100u);  // two ranks, 100 B each at most
  EXPECT_EQ(arenaPeak(true), paced);
}

/// The eager arena's bookkeeping as it was when every payload byte was
/// copied in with std::vector::insert: the reference for the offsets,
/// capacity and peak that PayloadArena must keep now that it writes only
/// each payload's non-zero head.
class InsertArena {
 public:
  std::uint32_t store(pmpi::ConstBytes data) {
    if (data.empty()) return 0;
    const auto len = static_cast<std::uint32_t>(data.size());
    ++outstanding_;
    for (std::size_t i = 0; i < freeBlocks_.size(); ++i) {
      if (freeBlocks_[i].len != len) continue;
      const std::uint32_t off = freeBlocks_[i].off;
      freeBlocks_[i] = freeBlocks_.back();
      freeBlocks_.pop_back();
      std::copy(data.begin(), data.end(),
                buf_.begin() + static_cast<std::ptrdiff_t>(off));
      return off;
    }
    const auto off = static_cast<std::uint32_t>(buf_.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
    peakBytes_ = buf_.size() > peakBytes_ ? buf_.size() : peakBytes_;
    return off;
  }
  void release(std::uint32_t off, std::uint32_t len) {
    if (outstanding_ > 0) --outstanding_;
    if (outstanding_ == 0) {
      buf_.clear();
      freeBlocks_.clear();
      return;
    }
    freeBlocks_.push_back(Block{off, len});
  }
  void reset() {
    buf_ = {};
    freeBlocks_ = {};
    outstanding_ = 0;
  }
  [[nodiscard]] std::size_t capacityBytes() const { return buf_.capacity(); }
  [[nodiscard]] std::size_t peakBytes() const { return peakBytes_; }

 private:
  struct Block {
    std::uint32_t off;
    std::uint32_t len;
  };
  std::vector<std::byte> buf_;
  std::vector<Block> freeBlocks_;
  std::size_t outstanding_ = 0;
  std::size_t peakBytes_ = 0;
};

// mem.payload_arena_bytes and mem.payload_arena_peak_bytes are report
// keys, so the head-only arena must grow exactly like the old one: over
// seeded mixes of stores (lengths that recycle and lengths that do not,
// dense, zero-tailed and all-zero, handed over with and without part of
// their zero tail), releases in any order and drain resets, every offset,
// capacity and peak equals the reference's.  Growth moves only the bytes
// written since the last drain, so every live payload's head must survive
// each growth; each round starts a fresh arena so that many growths happen
// under live heads.
TEST(PmpiMemory, HeadOnlyArenaKeepsOffsetsCapacityAndPeak) {
  static constexpr std::uint32_t kLens[] = {0, 1, 7, 8, 64, 64, 100, 1000,
                                            4096, 5000, 8192, 8192};
  struct Live {
    std::uint32_t off;
    std::uint32_t head;            ///< bytes the arena wrote
    std::vector<std::byte> data;   ///< the whole payload
  };
  const auto headsIntact = [](const pmpi::PayloadArena& arena,
                              const std::vector<Live>& live) {
    return std::all_of(live.begin(), live.end(), [&](const Live& l) {
      return std::equal(l.data.begin(), l.data.begin() + l.head,
                        arena.at(l.off));
    });
  };
  sim::Rng rng(31);
  int growthsUnderLiveHeads = 0;
  std::size_t maxPeak = 0;
  for (int round = 0; round < 40; ++round) {
    pmpi::PayloadArena arena;
    InsertArena ref;
    std::vector<Live> live;
    for (int op = 0; op < 100; ++op) {
      SCOPED_TRACE("round " + std::to_string(round) + " op " +
                   std::to_string(op));
      const std::size_t capacityBefore = arena.capacityBytes();
      const bool liveHeads = std::any_of(
          live.begin(), live.end(), [](const Live& l) { return l.head > 0; });
      const std::uint64_t pick = rng.below(100);
      if (pick < 55) {
        std::vector<std::byte> data(kLens[rng.below(std::size(kLens))],
                                    std::byte{0});
        const std::size_t nonZero = rng.below(data.size() + 1);
        for (std::size_t i = 0; i < nonZero; ++i) {
          data[i] = static_cast<std::byte>(rng.below(256));
        }
        // The head handed over covers every non-zero byte, and maybe some
        // of the zeros after them.
        const std::size_t given = nonZero + rng.below(data.size() - nonZero + 1);
        const auto len = static_cast<std::uint32_t>(data.size());
        const pmpi::PayloadArena::Stored got =
            arena.store(pmpi::ConstBytes(data).first(given), len);
        ASSERT_EQ(got.off, ref.store(data));
        ASSERT_LE(got.head, given);
        if (len > 0) live.push_back(Live{got.off, got.head, std::move(data)});
      } else if (pick < 99 && !live.empty()) {
        const std::size_t i = rng.below(live.size());
        const Live l = std::move(live[i]);
        live[i] = std::move(live.back());
        live.pop_back();
        const auto len = static_cast<std::uint32_t>(l.data.size());
        arena.release(l.off, len);
        ref.release(l.off, len);
      } else if (pick == 99) {
        arena.reset();
        ref.reset();
        live.clear();
      }
      ASSERT_EQ(arena.capacityBytes(), ref.capacityBytes());
      ASSERT_EQ(arena.peakBytes(), ref.peakBytes());
      if (arena.capacityBytes() != capacityBefore) {
        ASSERT_TRUE(headsIntact(arena, live));
        growthsUnderLiveHeads += liveHeads ? 1 : 0;
      }
    }
    ASSERT_TRUE(headsIntact(arena, live));
    maxPeak = std::max(maxPeak, ref.peakBytes());
  }
  EXPECT_GT(maxPeak, 8192u);
  EXPECT_GE(growthsUnderLiveHeads, 40);
}

// Offsets are 32-bit: an arena holding 16 bytes refuses a 0xFFFFFFFF-byte
// payload by name before it grows (nothing is allocated) and stays usable.
TEST(PmpiMemory, ArenaRefusesToOutgrowItsOffsets) {
  pmpi::PayloadArena arena;
  const std::vector<std::byte> dense(16, std::byte{0x5A});
  ASSERT_EQ(arena.store(dense, 16).off, 0u);
  try {
    (void)arena.store(pmpi::ConstBytes{}, 0xFFFFFFFFu);
    ADD_FAILURE() << "a 4 GiB arena offset wrapped";
  } catch (const std::length_error& e) {
    EXPECT_STREQ(e.what(),
                 "pmpi: eager payload arena of 16 bytes cannot take a "
                 "4294967295-byte payload: its offsets are 32-bit");
  }
  EXPECT_EQ(arena.capacityBytes(), 16u);
  EXPECT_EQ(arena.peakBytes(), 16u);
  EXPECT_EQ(arena.outstanding(), 1u);
  EXPECT_TRUE(std::equal(dense.begin(), dense.end(), arena.at(0)));
  arena.release(0, 16);
  EXPECT_EQ(arena.outstanding(), 0u);
}

/// Rank 0 sends each payload in turn and waits for an empty reply, so
/// rank 1's arena drains before the next store and every payload lands on
/// bytes an earlier one left behind.  Each is received into a buffer 8
/// bytes longer than itself, pre-filled with 0xAA.
std::vector<std::vector<std::byte>> receivePaced(
    const std::vector<std::vector<std::byte>>& payloads) {
  std::vector<std::vector<std::byte>> got(payloads.size());
  World w;
  w.runRanks(2, [&](Env& env) {
    const Comm c = env.world();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (env.rank() == 0) {
        env.send(c, 1, 1, pmpi::ConstBytes(payloads[i]));
        env.recv(c, 1, 2, pmpi::Bytes{});
      } else {
        got[i].assign(payloads[i].size() + 8, std::byte{0xAA});
        const pmpi::Status st = env.recv(c, 0, 1, pmpi::Bytes(got[i]));
        EXPECT_EQ(st.bytes, payloads[i].size());
        env.send(c, 0, 2, pmpi::ConstBytes{});
      }
    }
  });
  return got;
}

// The arena holds only a payload's non-zero head, so the receiver writes
// the zero tail: an empty payload, an all-zero one, one whose zeros start
// inside a word, one that crosses the page-sized zero scan, and a dense
// one arrive byte-exact over stale arena bytes, and the receive buffer
// past the payload keeps its 0xAA.
TEST(PmpiMemory, EagerPayloadsArriveByteExactOverStaleBytes) {
  const auto bytes = [](std::size_t n, std::size_t head, unsigned char v) {
    std::vector<std::byte> b(n, std::byte{0});
    for (std::size_t i = 0; i < head; ++i) b[i] = std::byte{v};
    return b;
  };
  const std::vector<std::vector<std::byte>> payloads = {
      bytes(6000, 6000, 0x5A),  // dense: fills the arena with stale bytes
      {},                       // empty
      bytes(64, 0, 0),          // all zero
      bytes(64, 13, 0x11),      // zero tail from byte 13, inside a word
      bytes(6000, 4100, 0x22),  // zero tail past one 4 KiB scan step
      bytes(61, 61, 0x33),      // non-zero last byte, odd length
  };
  const std::vector<std::vector<std::byte>> got = receivePaced(payloads);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::vector<std::byte> want = payloads[i];
    want.resize(want.size() + 8, std::byte{0xAA});
    EXPECT_EQ(got[i], want) << "payload " << i;
  }
}

// A block recycled while another payload is outstanding still holds the
// bytes of the payload it carried before: a dense 64 B payload, then a
// 64 B payload that is zero past byte 3 in the same block, arrive exact.
TEST(PmpiMemory, RecycledBlockArrivesByteExact) {
  std::vector<std::byte> dense(64, std::byte{0x77});
  std::vector<std::byte> sparse(64, std::byte{0});
  sparse[0] = sparse[1] = sparse[2] = std::byte{0x44};
  const std::vector<std::byte> pending(32, std::byte{0x66});
  std::vector<std::byte> gotDense(64, std::byte{0xAA});
  std::vector<std::byte> gotSparse(64, std::byte{0xAA});
  std::vector<std::byte> gotPending(32, std::byte{0xAA});
  World w;
  w.runRanks(2, [&](Env& env) {
    const Comm c = env.world();
    if (env.rank() == 0) {
      env.send(c, 1, 1, pmpi::ConstBytes(dense));
      env.send(c, 1, 2, pmpi::ConstBytes(pending));  // keeps the arena busy
      env.recv(c, 1, 9, pmpi::Bytes{});              // dense was consumed
      env.send(c, 1, 3, pmpi::ConstBytes(sparse));   // reuses dense's block
    } else {
      env.recv(c, 0, 1, pmpi::Bytes(gotDense));
      env.send(c, 0, 9, pmpi::ConstBytes{});
      env.recv(c, 0, 3, pmpi::Bytes(gotSparse));
      env.recv(c, 0, 2, pmpi::Bytes(gotPending));
    }
  });
  EXPECT_EQ(gotDense, dense);
  EXPECT_EQ(gotSparse, sparse);
  EXPECT_EQ(gotPending, pending);
  // 64 + 32 bytes: the sparse payload took the recycled block.
  EXPECT_EQ(w.rt.memoryStats().payloadArenaPeakBytes, 96u);
}

TEST(PmpiMatchOrder, ReverseDrainSurvivesQueueCompaction) {
  // Draining 48 unexpected messages in reverse tag order leaves a long
  // tombstone tail and forces MatchFifo::compact() mid-drain; every payload
  // must still arrive under the right tag.
  World w;
  constexpr int kMsgs = 48;
  int checked = 0;
  w.registry.add("drain", [&](Env& env) {
    const Comm c = env.world();
    if (env.rank() == 0) {
      for (std::int64_t i = 0; i < kMsgs; ++i) {
        env.send(c, 1, static_cast<int>(i), std::as_bytes(std::span(&i, 1)));
      }
    } else {
      env.computeDelay(1_ms);
      for (int tag = kMsgs - 1; tag >= 0; --tag) {
        std::int64_t v = -1;
        env.recv(c, 0, tag, std::as_writable_bytes(std::span(&v, 1)));
        ASSERT_EQ(v, tag);
        ++checked;
      }
    }
  });
  w.rt.launch("drain", hw::NodeKind::Cluster, 2);
  w.run();
  EXPECT_EQ(checked, kMsgs);
}

// ---- Wire size ----------------------------------------------------------------

/// What one send from rank 0 to rank 1 looked like from both ends.
struct WireRun {
  std::vector<std::byte> received;  ///< rank 1's receive buffer afterwards
  pmpi::Status status;              ///< rank 1's receive Status
  std::size_t probedBytes = 0;      ///< iprobe's count (receive posted late)
  double sendDone = -1.0;           ///< simulated instant the send returned
  double recvDone = -1.0;
  double fabricBytes = 0, fabricMessages = 0, events = 0;
  double sendsEager = 0, sendsRendezvous = 0;
};

/// Rank 0 sends `payload` as a `wire`-byte message: through the wire-size
/// overloads, or (`padded`) the way xPic's interface used to go, as a
/// zero-padded `wire`-byte buffer into a `wire`-byte receive buffer.  The
/// receive is posted at once or (`!recvFirst`) a millisecond after the
/// message arrived, behind an iprobe.
WireRun runWire(const std::vector<std::byte>& payload, std::size_t wire,
                bool synchronous, bool recvFirst, bool padded) {
  obs::Tracer tracer;
  tracer.setMetricsOnly(true);
  pmpi::World w(hw::MachineConfig::deepEr(2, 2), {}, sim::Engine::kDefaultSeed,
                &tracer);
  WireRun out;
  w.registry.add("wire", [&](Env& env) {
    const Comm c = env.world();
    if (env.rank() == 0) {
      std::vector<std::byte> buf = payload;
      if (padded) {
        buf.resize(wire, std::byte{0});
        if (synchronous) {
          env.wait(env.issend(c, 1, 7, pmpi::ConstBytes(buf)));
        } else {
          env.send(c, 1, 7, pmpi::ConstBytes(buf));
        }
      } else if (synchronous) {
        env.wait(env.issend(c, 1, 7, pmpi::ConstBytes(buf), wire));
      } else {
        env.send(c, 1, 7, pmpi::ConstBytes(buf), wire);
      }
      out.sendDone = env.wtime();
    } else {
      out.received.assign(padded ? wire : payload.size(), std::byte{0xAA});
      if (!recvFirst) {
        env.computeDelay(1_ms);
        pmpi::Status st;
        EXPECT_TRUE(env.iprobe(c, 0, 7, &st));
        out.probedBytes = st.bytes;
      }
      out.status = env.recv(c, 0, 7, pmpi::Bytes(out.received));
      out.recvDone = env.wtime();
    }
  });
  w.rt.launch("wire", hw::NodeKind::Cluster, 2);
  w.run();
  const obs::Metrics& m = tracer.metrics();
  out.fabricBytes = m.value("fabric.bytes");
  out.fabricMessages = m.value("fabric.messages");
  out.events = m.value("engine.events_processed");
  out.sendsEager = m.value("pmpi.sends.eager");
  out.sendsRendezvous = m.value("pmpi.sends.rendezvous");
  return out;
}

// Differential oracle for the wire size: a P-byte payload sent as a W-byte
// message must simulate exactly like a zero-padded W-byte buffer received
// into a W-byte buffer, while the host moves and reports only P bytes.
// Draws straddle the eager threshold, in both send modes, with the receive
// posted before and after arrival.
TEST(PmpiWireSize, SimulatesLikeAZeroPaddedBuffer) {
  const std::size_t threshold = pmpi::ProtocolParams{}.eagerThreshold;
  sim::Rng rng(0x77697265);
  int eager = 0;
  int rendezvous = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t wire = trial % 4 == 3
                                 ? 1 + rng.below(4 * threshold)
                                 : threshold - 64 + rng.below(129);
    std::vector<std::byte> payload(rng.below(wire + 1));
    for (std::byte& b : payload) b = static_cast<std::byte>(rng.next());
    const bool synchronous = trial % 2 == 1;
    const bool recvFirst = (trial / 2) % 2 == 1;
    SCOPED_TRACE("trial " + std::to_string(trial) + ": payload " +
                 std::to_string(payload.size()) + " B, wire " +
                 std::to_string(wire) + " B, " +
                 (synchronous ? "synchronous" : "standard") + ", receive " +
                 (recvFirst ? "first" : "late"));

    const WireRun got = runWire(payload, wire, synchronous, recvFirst, false);
    const WireRun ref = runWire(payload, wire, synchronous, recvFirst, true);
    EXPECT_EQ(got.sendDone, ref.sendDone);
    EXPECT_EQ(got.recvDone, ref.recvDone);
    EXPECT_EQ(got.fabricBytes, ref.fabricBytes);
    EXPECT_EQ(got.fabricMessages, ref.fabricMessages);
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.sendsEager, ref.sendsEager);
    EXPECT_EQ(got.sendsRendezvous, ref.sendsRendezvous);

    EXPECT_EQ(got.received, payload);
    EXPECT_EQ(got.status.bytes, payload.size());
    EXPECT_EQ(got.status.source, 0);
    EXPECT_EQ(got.status.tag, 7);
    EXPECT_EQ(ref.status.bytes, wire);
    if (!recvFirst) {
      EXPECT_EQ(got.probedBytes, payload.size());
      EXPECT_EQ(ref.probedBytes, wire);
    }
    eager += got.sendsEager > 0 ? 1 : 0;
    rendezvous += got.sendsRendezvous > 0 ? 1 : 0;
  }
  // Both protocols were exercised, the standard-mode eager path included.
  EXPECT_GT(eager, 4);
  EXPECT_GT(rendezvous, 4);
}

TEST(PmpiWireSize, WireSmallerThanPayloadIsRejectedNamingBoth) {
  World w;
  std::vector<std::string> errors;
  w.registry.add("short-wire", [&](Env& env) {
    const std::vector<std::byte> buf(100);
    for (const bool synchronous : {false, true}) {
      try {
        if (synchronous) {
          (void)env.issend(env.world(), 0, 1, pmpi::ConstBytes(buf), 99);
        } else {
          env.send(env.world(), 0, 1, pmpi::ConstBytes(buf), 99);
        }
      } catch (const std::invalid_argument& e) {
        errors.emplace_back(e.what());
      }
    }
  });
  w.rt.launch("short-wire", hw::NodeKind::Cluster, 1);
  w.run();
  ASSERT_EQ(errors.size(), 2u);
  for (const std::string& e : errors) {
    EXPECT_EQ(e, "pmpi: wire size of 99 bytes is smaller than the 100-byte "
                 "payload");
  }
}

// The payload length travels in 32 bits: a longer one is refused by name
// before a byte of it is read (the span covers reserved, inaccessible
// address space).
TEST(PmpiWireSize, PayloadPastFourGiBIsRejectedByName) {
  const std::size_t len = (std::size_t{1} << 32) + 1;
  void* base = mmap(nullptr, len, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) GTEST_SKIP() << "cannot reserve 4 GiB of addresses";
  World w;
  std::string error;
  w.registry.add("huge", [&](Env& env) {
    const pmpi::ConstBytes data(static_cast<const std::byte*>(base), len);
    try {
      env.send(env.world(), 0, 1, data, len);
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
  });
  w.rt.launch("huge", hw::NodeKind::Cluster, 1);
  w.run();
  munmap(base, len);
  EXPECT_EQ(error, "pmpi: payload of 4294967297 bytes exceeds the 4 GiB "
                   "message limit");
}

// The truncation checks compare the payload, not the wire size, with the
// receive buffer: one byte short fails on both protocols.
TEST(PmpiWireSize, ShortReceiveBufferTruncatesOnBothProtocols) {
  const std::pair<std::size_t, const char*> cases[] = {
      {4096, "pmpi: eager message truncates receive buffer"},
      {65536, "pmpi: rendezvous message truncates receive buffer"}};
  for (const auto& [wire, expected] : cases) {
    World w;
    w.registry.add("trunc", [&, wire = wire](Env& env) {
      std::vector<std::byte> buf(100);
      if (env.rank() == 0) {
        env.send(env.world(), 1, 1, pmpi::ConstBytes(buf), wire);
      } else {
        env.recv(env.world(), 0, 1, pmpi::Bytes(buf.data(), 99));
      }
    });
    w.rt.launch("trunc", hw::NodeKind::Cluster, 2);
    try {
      w.engine.run();
      ADD_FAILURE() << "a 99-byte buffer took a 100-byte payload";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

// ---- Zero payloads and discarding receives -------------------------------------

/// What one message from rank 0 to rank 1 looked like from both ends, and
/// everything the world counted.
struct ZeroRun {
  std::vector<std::byte> received;  ///< rank 1's buffer (buffer receives)
  pmpi::Status status;              ///< rank 1's receive Status
  std::size_t probedBytes = 0;      ///< iprobe's count (receive posted late)
  double sendDone = -1.0;           ///< simulated instant the send completed
  double recvDone = -1.0;
  /// Every metric key with its value and maximum.
  std::vector<std::tuple<std::string, double, double>> metrics;
  std::vector<std::size_t> memory;  ///< every Runtime::MemoryStats field
};

/// Rank 0 sends `n` zero bytes twice, from a zero-filled buffer or
/// (`zeros`) with isendZeros; rank 1 receives each into a `capacity`-byte
/// buffer filled with 0xAA or (`discard`) with irecvDiscard(capacity).
/// Each receive is posted at once or (`!recvFirst`) a millisecond after
/// the message arrived, behind an iprobe.  The second message waits for
/// an empty reply to the first, so it shows whether the first gave its
/// eager block back.
ZeroRun runZeros(std::size_t n, std::size_t capacity, bool zeros, bool discard,
                 bool recvFirst, bool reliable) {
  obs::Tracer tracer;
  tracer.setMetricsOnly(true);
  pmpi::ProtocolParams protocol;
  protocol.reliable = reliable;
  pmpi::World w(hw::MachineConfig::deepEr(2, 2), protocol,
                sim::Engine::kDefaultSeed, &tracer);
  ZeroRun out;
  w.registry.add("zeros", [&](Env& env) {
    const Comm c = env.world();
    for (int round = 0; round < 2; ++round) {
      if (env.rank() == 0) {
        if (round > 0) env.recv(c, 1, 8, pmpi::Bytes{});
        const std::vector<std::byte> buf(zeros ? 0 : n, std::byte{0});
        env.wait(zeros ? env.isendZeros(c, 1, 7, n)
                       : env.isend(c, 1, 7, pmpi::ConstBytes(buf)));
        out.sendDone = env.wtime();
        continue;
      }
      if (!discard) out.received.assign(capacity, std::byte{0xAA});
      if (!recvFirst) {
        env.computeDelay(1_ms);
        pmpi::Status st;
        EXPECT_TRUE(env.iprobe(c, 0, 7, &st));
        out.probedBytes = st.bytes;
      }
      out.status = env.wait(
          discard ? env.irecvDiscard(c, 0, 7, capacity)
                  : env.irecv(c, 0, 7, pmpi::Bytes(out.received)));
      out.recvDone = env.wtime();
      if (round == 0) env.send(c, 0, 8, pmpi::ConstBytes{});
    }
  });
  w.rt.launch("zeros", hw::NodeKind::Cluster, 2);
  w.run();
  for (const auto& [name, e] : tracer.metrics().entries()) {
    out.metrics.emplace_back(name, e.value, e.max);
  }
  const pmpi::Runtime::MemoryStats m = w.rt.memoryStats();
  out.memory = {m.procSlabBytes,        m.requestSlots,
                m.requestPoolBytes,     m.payloadArenaBytes,
                m.payloadArenaPeakBytes, m.matchQueueBytes,
                m.matchQueuePeakEntries, m.channelCount,
                m.channelBytes};
  return out;
}

// Differential oracle for zero sends and discarding receives: each of the
// three pairings that uses one must simulate exactly like an n-byte
// zero-filled buffer sent into a buffer receive (completion instants, every
// metric, Status, iprobe's count, memoryStats()), and a buffer receive of a
// zero send gets n zeros over its 0xAA bytes.  Draws straddle the eager
// threshold, with the receive posted before and after arrival, on the plain
// and the reliable transport.
TEST(PmpiZeroPayload, SimulatesLikeAZeroFilledBuffer) {
  const std::size_t threshold = pmpi::ProtocolParams{}.eagerThreshold;
  sim::Rng rng(0x7a65726f);
  int eager = 0;
  int rendezvous = 0;
  for (int trial = 0; trial < 32; ++trial) {
    const std::size_t n = trial % 4 == 3 ? 1 + rng.below(4 * threshold)
                                         : threshold - 64 + rng.below(129);
    const std::size_t capacity = n + rng.below(65);
    const bool recvFirst = trial % 2 == 1;
    const bool reliable = (trial / 2) % 2 == 1;
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + std::to_string(n) +
                 " B into " + std::to_string(capacity) + " B, receive " +
                 (recvFirst ? "first" : "late") +
                 (reliable ? ", reliable" : ", plain"));
    const ZeroRun ref = runZeros(n, capacity, false, false, recvFirst, reliable);
    EXPECT_EQ(ref.status.bytes, n);
    EXPECT_EQ(ref.status.source, 0);
    EXPECT_EQ(ref.status.tag, 7);
    if (!recvFirst) {
      EXPECT_EQ(ref.probedBytes, n);
    }
    for (const auto& [zeros, discard] :
         {std::pair{true, false}, std::pair{false, true}, std::pair{true, true}}) {
      SCOPED_TRACE(std::string(zeros ? "isendZeros" : "isend") + " into " +
                   (discard ? "irecvDiscard" : "irecv"));
      const ZeroRun got = runZeros(n, capacity, zeros, discard, recvFirst,
                                   reliable);
      EXPECT_EQ(got.sendDone, ref.sendDone);
      EXPECT_EQ(got.recvDone, ref.recvDone);
      EXPECT_EQ(got.metrics, ref.metrics);
      EXPECT_EQ(got.memory, ref.memory);
      EXPECT_EQ(got.status.bytes, ref.status.bytes);
      EXPECT_EQ(got.status.source, ref.status.source);
      EXPECT_EQ(got.status.tag, ref.status.tag);
      EXPECT_EQ(got.probedBytes, ref.probedBytes);
      if (!discard) {
        EXPECT_EQ(got.received, ref.received);
      }
    }
    std::vector<std::byte> want(n, std::byte{0});
    want.resize(capacity, std::byte{0xAA});
    EXPECT_EQ(ref.received, want);
    eager += n <= threshold ? 1 : 0;
    rendezvous += n > threshold ? 1 : 0;
  }
  EXPECT_GT(eager, 4);
  EXPECT_GT(rendezvous, 4);
}

// A discarding receive truncates like a buffer of its capacity: one byte
// short fails by name on both protocols, while an exact fit and a capacity
// past the 4 GiB message limit take the message.
TEST(PmpiZeroPayload, DiscardingReceiveTruncatesLikeABuffer) {
  const std::pair<std::size_t, const char*> cases[] = {
      {4096, "pmpi: eager message truncates receive buffer"},
      {65536, "pmpi: rendezvous message truncates receive buffer"}};
  for (const auto& [n, expected] : cases) {
    for (const std::size_t capacity : {n - 1, n, std::size_t{1} << 32}) {
      SCOPED_TRACE(std::to_string(n) + " B into " + std::to_string(capacity));
      World w;
      pmpi::Status st;
      w.registry.add("trunc", [&, n = n, capacity](Env& env) {
        if (env.rank() == 0) {
          env.wait(env.isendZeros(env.world(), 1, 1, n));
        } else {
          st = env.wait(env.irecvDiscard(env.world(), 0, 1, capacity));
        }
      });
      w.rt.launch("trunc", hw::NodeKind::Cluster, 2);
      try {
        w.engine.run();
        EXPECT_GE(capacity, n) << "a short discarding receive took the message";
        EXPECT_EQ(st.bytes, n);
      } catch (const std::runtime_error& e) {
        EXPECT_LT(capacity, n) << e.what();
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
      }
    }
  }
}

// A zero send's length is checked like a buffer's: past 4 GiB it is
// refused by name, with no buffer of that size anywhere.
TEST(PmpiZeroPayload, PastFourGiBIsRejectedByName) {
  World w;
  std::string error;
  w.registry.add("huge", [&](Env& env) {
    try {
      (void)env.isendZeros(env.world(), 0, 1, std::size_t{1} << 32);
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
  });
  w.rt.launch("huge", hw::NodeKind::Cluster, 1);
  w.run();
  EXPECT_EQ(error, "pmpi: payload of 4294967296 bytes exceeds the 4 GiB "
                   "message limit");
}

}  // namespace
