#pragma once

// Env — the MPI-like API surface handed to every rank's main function.
//
// Modeled after the subset of MPI the paper's software stack exercises:
// point-to-point (blocking and nonblocking, standard and synchronous mode),
// the common collectives, communicator split/dup, and — the heart of the
// Cluster-Booster offload mechanism — MPI_Comm_spawn returning an
// inter-communicator, plus MPI_Get_parent on the child side.
//
// Beyond communication, Env charges simulated compute time for hw::Work via
// the node's CpuModel, which is how application kernels acquire
// architecture-dependent cost.

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hw/work.hpp"
#include "pmpi/runtime.hpp"
#include "pmpi/types.hpp"

namespace cbsim::pmpi {

class Env {
 public:
  Env(Runtime& rt, Proc& proc, sim::Context& ctx)
      : rt_(rt), proc_(proc), ctx_(ctx) {}
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  // ---- Identity ------------------------------------------------------------
  [[nodiscard]] int rank() const { return proc_.rank; }
  [[nodiscard]] int size() const { return rt_.localSize(proc_.world, proc_.idx); }
  [[nodiscard]] Comm world() const { return proc_.world; }
  /// Intercommunicator to the spawning job (MPI_Get_parent); invalid Comm
  /// when this job was launched directly.
  [[nodiscard]] Comm parent() const { return proc_.parent; }
  [[nodiscard]] const hw::Node& node() const { return rt_.machine().node(proc_.nodeId); }
  [[nodiscard]] int threads() const { return proc_.threads; }
  [[nodiscard]] double wtime() const { return ctx_.now().toSeconds(); }
  [[nodiscard]] sim::Context& ctx() { return ctx_; }
  [[nodiscard]] Runtime& runtime() { return rt_; }

  [[nodiscard]] int commRank(Comm c) const { return rt_.rankIn(c, proc_.idx); }
  [[nodiscard]] int commSize(Comm c) const { return rt_.localSize(c, proc_.idx); }
  [[nodiscard]] int commRemoteSize(Comm c) const { return rt_.remoteSize(c, proc_.idx); }

  // ---- Simulated work ------------------------------------------------------
  /// Charges the time of `w` on this node using this rank's thread count.
  void compute(const hw::Work& w) { compute(w, proc_.threads); }
  void compute(const hw::Work& w, int threadCount);
  /// Charges an explicit duration to the compute account.
  void computeDelay(sim::SimTime t);
  /// Charges an explicit duration to the I/O account (used by the io/ stack).
  void ioDelay(sim::SimTime t);
  /// Books already-elapsed time (spent in suspend/wake waiting on devices
  /// or fabric events) to the I/O account without advancing the clock.
  void noteIo(double seconds) { proc_.ioSec += seconds; }

  [[nodiscard]] double computeSec() const { return proc_.computeSec; }
  [[nodiscard]] double commSec() const { return proc_.commSec; }
  [[nodiscard]] double ioSec() const { return proc_.ioSec; }

  /// Emits a [start, now] span named `name` (category "phase") on this
  /// rank's timeline row; no-op unless the attached tracer records a
  /// timeline (sim::Engine::timeline()).  `name` must
  /// have static storage duration.  Used by application drivers to mark
  /// algorithmic phases (e.g. xpic's fields/particles/aux/exchange).
  void tracePhase(const char* name, sim::SimTime start);

  // ---- Point-to-point (byte level) ------------------------------------------
  void send(Comm c, int dst, int tag, ConstBytes data);
  /// Synchronous-mode send: completes only once the receive matched.
  void ssend(Comm c, int dst, int tag, ConstBytes data);
  Status recv(Comm c, int src, int tag, Bytes buf);

  Request isend(Comm c, int dst, int tag, ConstBytes data);
  Request issend(Comm c, int dst, int tag, ConstBytes data);
  Request irecv(Comm c, int src, int tag, Bytes buf);

  void wait(const Request& r);
  /// Nonblocking completion check (consumes no simulated time).  A null
  /// handle, or one whose operation already completed and was waited on,
  /// reports done (MPI's inactive-request semantics).
  [[nodiscard]] bool test(const Request& r) const {
    return !r.valid() || rt_.requestDone(r);
  }
  void waitAll(std::span<const Request> rs);
  /// Blocks until at least one request completes; returns its index.
  std::size_t waitAny(std::span<const Request> rs);

  /// Nonblocking probe: is a matching message waiting?  Fills `st` (with
  /// the pending byte count) when one is.
  bool iprobe(Comm c, int src, int tag, Status* st = nullptr);

  Status sendRecv(Comm c, int dst, int sendTag, ConstBytes sendData, int src,
                  int recvTag, Bytes recvBuf);

  // ---- Point-to-point (typed) -----------------------------------------------
  template <typename T>
  void send(Comm c, int dst, int tag, std::span<const T> data) {
    send(c, dst, tag, std::as_bytes(data));
  }
  template <typename T>
  Status recv(Comm c, int src, int tag, std::span<T> buf) {
    return recv(c, src, tag, std::as_writable_bytes(buf));
  }
  template <typename T>
  Request isend(Comm c, int dst, int tag, std::span<const T> data) {
    return isend(c, dst, tag, std::as_bytes(data));
  }
  template <typename T>
  Request issend(Comm c, int dst, int tag, std::span<const T> data) {
    return issend(c, dst, tag, std::as_bytes(data));
  }
  template <typename T>
  void ssend(Comm c, int dst, int tag, std::span<const T> data) {
    ssend(c, dst, tag, std::as_bytes(data));
  }
  template <typename T>
  Request irecv(Comm c, int src, int tag, std::span<T> buf) {
    return irecv(c, src, tag, std::as_writable_bytes(buf));
  }
  template <typename T>
  void sendValue(Comm c, int dst, int tag, const T& v) {
    send(c, dst, tag, std::span<const T>(&v, 1));
  }
  template <typename T>
  T recvValue(Comm c, int src, int tag) {
    T v{};
    recv(c, src, tag, std::span<T>(&v, 1));
    return v;
  }

  // ---- Collectives (intracommunicators) --------------------------------------
  void barrier(Comm c);

  template <typename T>
  void bcast(Comm c, int root, std::span<T> data);
  template <typename T>
  T bcastValue(Comm c, int root, T v) {
    bcast(c, root, std::span<T>(&v, 1));
    return v;
  }

  template <typename T>
  void reduce(Comm c, int root, std::span<const T> in, std::span<T> out, Op op);
  template <typename T>
  void allreduce(Comm c, std::span<const T> in, std::span<T> out, Op op);
  template <typename T>
  T allreduceValue(Comm c, T v, Op op) {
    T out{};
    allreduce(c, std::span<const T>(&v, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Inclusive prefix reduction: rank r receives op(in_0 .. in_r).
  template <typename T>
  void scan(Comm c, std::span<const T> in, std::span<T> out, Op op);
  template <typename T>
  T scanValue(Comm c, T v, Op op) {
    T out{};
    scan(c, std::span<const T>(&v, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Root receives commSize(c)*in.size() elements, rank-major.
  template <typename T>
  void gather(Comm c, int root, std::span<const T> in, std::span<T> out);
  template <typename T>
  void allgather(Comm c, std::span<const T> in, std::span<T> out);
  /// Root sends out.size() elements to each rank from rank-major `in`.
  template <typename T>
  void scatter(Comm c, int root, std::span<const T> in, std::span<T> out);
  /// in/out are rank-major blocks of in.size()/commSize elements.
  template <typename T>
  void alltoall(Comm c, std::span<const T> in, std::span<T> out);

  // ---- Communicator management ------------------------------------------------
  Comm commSplit(Comm c, int color, int key);
  Comm commDup(Comm c);

  /// MPI_Comm_spawn: collective over `c` (defaults to world).  Starts
  /// `nprocs` instances of the registered app `appName` on the partition
  /// given in `opts` and returns the intercommunicator to them.
  Comm commSpawn(const std::string& appName, int nprocs, SpawnOptions opts = {},
                 Comm over = Comm{});

 private:
  /// Per-collective-invocation tag block; see collTag().
  int nextCollSeq(Comm c) { return proc_.collSeq.next(c.id()); }
  /// Tags >= kCollTagBase are reserved for collectives (user tags must be
  /// smaller; enforced in send/recv).
  static constexpr int kCollTagBase = 1 << 24;
  static int collTag(int seq, int round) {
    return kCollTagBase + ((seq & 0x3FFF) << 7) + round;
  }
  // Collectives route through the public send/recv entry points, so only
  // non-negativity can be enforced here; the tag-space convention (user
  // tags < kCollTagBase) is documented on the class.
  void checkUserTag([[maybe_unused]] int tag) const {
    assert(tag == AnyTag || tag >= 0);
  }
  /// Blocks until `r` completes, charging the elapsed time to commSec.
  /// Returns the completion Status and releases the request's pool slot
  /// (the handle becomes inactive: test() keeps reporting done).
  Status waitTracked(Request r);
  /// Emits a "wait" span [start, now] on this rank's row when time passed.
  void traceWait(sim::SimTime start);

  Runtime& rt_;
  Proc& proc_;
  sim::Context& ctx_;
};

// ---- Collective template implementations -------------------------------------

template <typename T>
void Env::bcast(Comm c, int root, std::span<T> data) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  if (n <= 1) return;
  // Binomial tree on ranks relative to root.
  const int rel = (r - root + n) % n;
  const int round = 0;  // one message per (seq, pair); a single tag suffices
  // Receive once (non-roots), then forward to the subtree.
  if (rel != 0) {
    int recvMask = 1;
    while (recvMask <= rel) recvMask <<= 1;
    recvMask >>= 1;
    const int parentRel = rel - recvMask;
    const int parentRank = (parentRel + root) % n;
    recv(c, parentRank, collTag(seq, round), std::as_writable_bytes(data));
  }
  // Forward to children: rel + m for every m > (highest bit of rel).
  int startMask = 1;
  while (startMask <= rel) startMask <<= 1;
  for (int m = startMask; rel + m < n; m <<= 1) {
    const int childRank = (rel + m + root) % n;
    send(c, childRank, collTag(seq, round), std::as_bytes(data));
  }
}

template <typename T>
void Env::reduce(Comm c, int root, std::span<const T> in, std::span<T> out,
                 Op op) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  assert(in.size() == out.size() || r != root);
  std::vector<T> acc(in.begin(), in.end());
  std::vector<T> incoming(in.size());
  const int rel = (r - root + n) % n;
  // Binomial: in round k, relative ranks with bit k set send to rel - 2^k.
  for (int mask = 1, round = 0; mask < n; mask <<= 1, ++round) {
    if (rel & mask) {
      const int dstRank = ((rel - mask) + root) % n;
      send(c, dstRank, collTag(seq, round),
           std::as_bytes(std::span<const T>(acc)));
      break;  // sent our partial result upward; done
    }
    if (rel + mask < n) {
      const int srcRank = ((rel + mask) + root) % n;
      recv(c, srcRank, collTag(seq, round),
           std::as_writable_bytes(std::span<T>(incoming)));
      for (std::size_t i = 0; i < acc.size(); ++i) {
        switch (op) {
          case Op::Sum: acc[i] = acc[i] + incoming[i]; break;
          case Op::Min: acc[i] = std::min(acc[i], incoming[i]); break;
          case Op::Max: acc[i] = std::max(acc[i], incoming[i]); break;
          case Op::Prod: acc[i] = acc[i] * incoming[i]; break;
        }
      }
    }
  }
  if (r == root) {
    std::copy(acc.begin(), acc.end(), out.begin());
  }
}

template <typename T>
void Env::allreduce(Comm c, std::span<const T> in, std::span<T> out, Op op) {
  // reduce-to-0 + bcast: what production MPIs fall back to for general
  // communicators; costs emerge from the underlying p2p.
  reduce(c, 0, in, out, op);
  bcast(c, 0, out);
}

template <typename T>
void Env::scan(Comm c, std::span<const T> in, std::span<T> out, Op op) {
  // Linear chain: rank r receives the prefix from r-1, folds its own
  // contribution, forwards to r+1.  O(n) latency but bandwidth-optimal,
  // fine for the rank counts this library targets.
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  std::vector<T> acc(in.begin(), in.end());
  if (r > 0) {
    std::vector<T> prev(in.size());
    recv(c, r - 1, collTag(seq, 0), std::span<T>(prev));
    for (std::size_t i = 0; i < acc.size(); ++i) {
      switch (op) {
        case Op::Sum: acc[i] = prev[i] + acc[i]; break;
        case Op::Min: acc[i] = std::min(prev[i], acc[i]); break;
        case Op::Max: acc[i] = std::max(prev[i], acc[i]); break;
        case Op::Prod: acc[i] = prev[i] * acc[i]; break;
      }
    }
  }
  if (r + 1 < n) {
    send(c, r + 1, collTag(seq, 0), std::as_bytes(std::span<const T>(acc)));
  }
  std::copy(acc.begin(), acc.end(), out.begin());
}

template <typename T>
void Env::gather(Comm c, int root, std::span<const T> in, std::span<T> out) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  if (r == root) {
    assert(out.size() >= in.size() * static_cast<std::size_t>(n));
    std::copy(in.begin(), in.end(),
              out.begin() + static_cast<std::ptrdiff_t>(in.size()) * r);
    for (int src = 0; src < n; ++src) {
      if (src == r) continue;
      recv(c, src, collTag(seq, 0),
           std::as_writable_bytes(
               out.subspan(in.size() * static_cast<std::size_t>(src), in.size())));
    }
  } else {
    send(c, root, collTag(seq, 0), std::as_bytes(in));
  }
}

template <typename T>
void Env::allgather(Comm c, std::span<const T> in, std::span<T> out) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  const std::size_t blk = in.size();
  assert(out.size() >= blk * static_cast<std::size_t>(n));
  std::copy(in.begin(), in.end(),
            out.begin() + static_cast<std::ptrdiff_t>(blk) * r);
  // Ring: in step s, send the block received in step s-1 to the right
  // neighbour and receive a new block from the left.
  const int right = (r + 1) % n;
  const int left = (r - 1 + n) % n;
  int sendBlock = r;
  for (int s = 0; s < n - 1; ++s) {
    const int recvBlock = (sendBlock - 1 + n) % n;
    const Request rr = irecv(
        c, left, collTag(seq, s),
        std::as_writable_bytes(out.subspan(blk * static_cast<std::size_t>(recvBlock), blk)));
    send(c, right, collTag(seq, s),
         std::as_bytes(std::span<const T>(
             out.subspan(blk * static_cast<std::size_t>(sendBlock), blk))));
    wait(rr);
    sendBlock = recvBlock;
  }
}

template <typename T>
void Env::scatter(Comm c, int root, std::span<const T> in, std::span<T> out) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  const std::size_t blk = out.size();
  if (r == root) {
    assert(in.size() >= blk * static_cast<std::size_t>(n));
    for (int dst = 0; dst < n; ++dst) {
      const auto block = in.subspan(blk * static_cast<std::size_t>(dst), blk);
      if (dst == r) {
        std::copy(block.begin(), block.end(), out.begin());
      } else {
        send(c, dst, collTag(seq, 0), std::as_bytes(block));
      }
    }
  } else {
    recv(c, root, collTag(seq, 0), std::as_writable_bytes(out));
  }
}

template <typename T>
void Env::alltoall(Comm c, std::span<const T> in, std::span<T> out) {
  const int n = commSize(c);
  const int r = commRank(c);
  const int seq = nextCollSeq(c);
  const std::size_t blk = in.size() / static_cast<std::size_t>(n);
  assert(in.size() == blk * static_cast<std::size_t>(n));
  assert(out.size() == in.size());
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(blk) * r,
            in.begin() + static_cast<std::ptrdiff_t>(blk) * (r + 1),
            out.begin() + static_cast<std::ptrdiff_t>(blk) * r);
  for (int s = 1; s < n; ++s) {
    const int dst = (r + s) % n;
    const int src = (r - s + n) % n;
    const Request rr = irecv(
        c, src, collTag(seq, s),
        std::as_writable_bytes(out.subspan(blk * static_cast<std::size_t>(src), blk)));
    send(c, dst, collTag(seq, s),
         std::as_bytes(in.subspan(blk * static_cast<std::size_t>(dst), blk)));
    wait(rr);
  }
}

}  // namespace cbsim::pmpi
