#include "pmpi/env.hpp"

#include <algorithm>
#include <stdexcept>

namespace cbsim::pmpi {

using sim::SimTime;

// ---- Simulated work -------------------------------------------------------

void Env::compute(const hw::Work& w, int threadCount) {
  const SimTime t = rt_.machine().cpuModel(proc_.nodeId).time(w, threadCount);
  proc_.computeSec += t.toSeconds();
  ctx_.delay(t, "compute");
}

void Env::computeDelay(SimTime t) {
  proc_.computeSec += t.toSeconds();
  ctx_.delay(t, "compute");
}

void Env::ioDelay(SimTime t) {
  proc_.ioSec += t.toSeconds();
  ctx_.delay(t, "io");
}

void Env::tracePhase(const char* name, SimTime start) {
  obs::Tracer* tr = rt_.engine().timeline();
  if (tr == nullptr || proc_.sproc == nullptr) return;
  const SimTime now = ctx_.now();
  if (now <= start) return;
  tr->span(obs::kGroupRanks, rt_.engine().processRow(*proc_.sproc), name,
           "phase", start, now);
}

// ---- Point-to-point -------------------------------------------------------

Status Env::waitTracked(Request r) {
  if (!r.valid()) return Status{};
  const SimTime start = ctx_.now();
  while (!rt_.requestDone(r)) ctx_.suspend();
  proc_.commSec += (ctx_.now() - start).toSeconds();
  traceWait(start);
  // Copies the Status out, then recycles the slot; the handle the caller
  // keeps turns stale, which requestDone/test read as "completed".
  return rt_.finishRequest(r);
}

void Env::traceWait(SimTime start) {
  obs::Tracer* tr = rt_.engine().timeline();
  if (tr == nullptr || proc_.sproc == nullptr) return;
  const SimTime now = ctx_.now();
  if (now <= start) return;  // completed instantly: no span to show
  tr->span(obs::kGroupRanks, rt_.engine().processRow(*proc_.sproc), "wait",
           "pmpi", start, now);
}

void Env::wait(const Request& r) { waitTracked(r); }

void Env::waitAll(std::span<const Request> rs) {
  for (const Request& r : rs) waitTracked(r);
}

std::size_t Env::waitAny(std::span<const Request> rs) {
  if (rs.empty()) throw std::invalid_argument("waitAny on empty request set");
  const SimTime start = ctx_.now();
  for (;;) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      // Non-consuming: the winning request stays live so a later
      // wait/waitAll on the same array still resolves it.
      if (rs[i].valid() && rt_.requestDone(rs[i])) {
        proc_.commSec += (ctx_.now() - start).toSeconds();
        traceWait(start);
        return i;
      }
    }
    ctx_.suspend();
  }
}

bool Env::iprobe(Comm c, int src, int tag, Status* st) {
  checkUserTag(tag);
  RequestState filter;
  filter.commId = c.id();
  filter.srcFilter = src;
  filter.tagFilter = tag;
  const Proc::UnexpectedMsg* m = proc_.unexpected.findFirst(
      [&](const Proc::UnexpectedMsg& u) { return Runtime::matches(filter, u); });
  if (m == nullptr) return false;
  if (st != nullptr) {
    st->source = m->srcRank;
    st->tag = m->tag;
    st->bytes = m->bytes;
  }
  return true;
}

Request Env::isend(Comm c, int dst, int tag, ConstBytes data) {
  checkUserTag(tag);
  // Injection: the sending CPU runs the MPI stack before returning.
  const SimTime ov = node().mpiSwOverhead;
  proc_.commSec += ov.toSeconds();
  ctx_.delay(ov);
  return rt_.postSend(proc_, c, dst, tag, data, Runtime::SendMode::Standard);
}

Request Env::issend(Comm c, int dst, int tag, ConstBytes data) {
  checkUserTag(tag);
  const SimTime ov = node().mpiSwOverhead;
  proc_.commSec += ov.toSeconds();
  ctx_.delay(ov);
  return rt_.postSend(proc_, c, dst, tag, data, Runtime::SendMode::Synchronous);
}

Request Env::irecv(Comm c, int src, int tag, Bytes buf) {
  checkUserTag(tag);
  return rt_.postRecv(proc_, c, src, tag, buf);
}

void Env::send(Comm c, int dst, int tag, ConstBytes data) {
  waitTracked(isend(c, dst, tag, data));
}

void Env::ssend(Comm c, int dst, int tag, ConstBytes data) {
  waitTracked(issend(c, dst, tag, data));
}

Status Env::recv(Comm c, int src, int tag, Bytes buf) {
  return waitTracked(irecv(c, src, tag, buf));
}

Status Env::sendRecv(Comm c, int dst, int sendTag, ConstBytes sendData,
                     int src, int recvTag, Bytes recvBuf) {
  const Request rr = irecv(c, src, recvTag, recvBuf);
  send(c, dst, sendTag, sendData);
  return waitTracked(rr);
}

// ---- Collectives ----------------------------------------------------------

void Env::barrier(Comm c) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  // Dissemination barrier: log2(n) rounds of zero-byte token exchange.
  std::byte token{};
  for (int k = 1, round = 0; k < n; k <<= 1, ++round) {
    const int dst = (r + k) % n;
    const int src = (r - k + n) % n;
    const Request rr =
        irecv(c, src, collTag(seq, round), Bytes(&token, 1));
    send(c, dst, collTag(seq, round), ConstBytes(&token, 1));
    waitTracked(rr);
  }
}

// ---- Communicator management ------------------------------------------------

namespace {
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

Comm Env::commSplit(Comm c, int color, int key) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = proc_.splitSeq.next(c.id());

  // Exchange (color, key) pairs, then every rank deterministically derives
  // the same sub-communicator membership.
  std::vector<std::int64_t> mine = {color, key};
  std::vector<std::int64_t> all(static_cast<std::size_t>(2 * n));
  allgather(c, std::span<const std::int64_t>(mine), std::span<std::int64_t>(all));

  struct Member {
    int key;
    int rank;
  };
  std::vector<Member> members;
  for (int i = 0; i < n; ++i) {
    if (all[static_cast<std::size_t>(2 * i)] == color) {
      members.push_back({static_cast<int>(all[static_cast<std::size_t>(2 * i + 1)]), i});
    }
  }
  std::stable_sort(members.begin(), members.end(), [](Member a, Member b) {
    return a.key < b.key;
  });

  const auto& group = rt_.commInfo(c);
  const auto& myGroup =
      group.rankInB(proc_.idx) >= 0 ? group.groupB : group.groupA;
  std::vector<int> procIdx;
  procIdx.reserve(members.size());
  for (const Member& m : members) {
    procIdx.push_back(myGroup.at(static_cast<std::size_t>(m.rank)));
  }

  // Sequentially chained hash: XOR-combining independently mixed fields
  // would be commutative and collide across (comm, color) pairs.
  std::uint64_t internKey = 0x51b0c0de0f5eedULL;
  internKey = mix(internKey ^ static_cast<std::uint64_t>(c.id()));
  internKey = mix(internKey ^ static_cast<std::uint64_t>(seq));
  internKey = mix(internKey ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(color)));
  (void)r;
  return rt_.internComm(internKey, procIdx);
}

Comm Env::commDup(Comm c) { return commSplit(c, 0, commRank(c)); }

Comm Env::commSpawn(const std::string& appName, int nprocs, SpawnOptions opts,
                    Comm over) {
  if (!over.valid()) over = proc_.world;
  const int r = commRank(over);

  int interId = -1;
  if (r == opts.root) {
    const Comm inter = rt_.spawnJob(proc_, over, appName, nprocs, opts);
    // The root drives remote-exec and connection setup.
    const SimTime cost =
        rt_.params().spawnBase + nprocs * rt_.params().spawnPerProc;
    proc_.commSec += cost.toSeconds();
    ctx_.delay(cost);
    interId = inter.id();
  }
  interId = bcastValue(over, opts.root, interId);
  return Comm(interId);
}

}  // namespace cbsim::pmpi
