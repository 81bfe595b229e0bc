#include "pmpi/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/tracer.hpp"
#include "pmpi/env.hpp"

namespace cbsim::pmpi {

using sim::SimTime;

namespace {

/// Message-lifecycle instant on a rank's timeline row (no-op without sproc,
/// which only happens for procs torn down mid-flight).  `tl` is the
/// engine's timeline(); callers test it before building `args`.
void traceMsgEvent(sim::Engine& eng, obs::Tracer& tl, const Proc& p,
                   const char* name, std::initializer_list<obs::TraceArg> args) {
  if (p.sproc == nullptr) return;
  tl.instant(obs::kGroupRanks, eng.processRow(*p.sproc), name, "pmpi",
             eng.now(), args);
}

}  // namespace

Runtime::MetricIds& Runtime::metricIds() {
  const std::uint64_t generation = engine().tracerGeneration();
  if (metricIds_.generation != generation) {
    metricIds_ = {};
    metricIds_.generation = generation;
  }
  return metricIds_;
}

void Runtime::traceQueueDepth(obs::Tracer& tr, obs::Metrics::Id& slot,
                              const char* gauge, double delta) {
  obs::Metrics& m = tr.metrics();
  const double depth = m.gaugeAdd(m.gauge(slot, gauge), delta);
  if (obs::Tracer* tl = engine().timeline()) {
    tl->counter(gauge, engine().now(), depth);
  }
}

Runtime::Runtime(hw::Machine& machine, extoll::Fabric& fabric,
                 rm::ResourceManager& rm, AppRegistry& registry,
                 ProtocolParams params)
    : machine_(machine),
      fabric_(fabric),
      rm_(rm),
      registry_(registry),
      params_(params) {}

Runtime::~Runtime() { engine().shutdown(); }

// ---- Communicators -----------------------------------------------------------

const Runtime::CommInfo& Runtime::commInfo(Comm c) const {
  if (!c.valid()) throw std::invalid_argument("invalid communicator");
  return comms_.at(static_cast<std::size_t>(c.id()));
}

void Runtime::GroupIndex::build(const std::vector<int>& members) {
  base = -1;
  sorted.clear();
  if (members.empty()) return;
  bool contiguous = true;
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (members[i] != members[i - 1] + 1) {
      contiguous = false;
      break;
    }
  }
  if (contiguous) {
    base = members.front();
    return;
  }
  sorted.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    sorted.emplace_back(members[i], static_cast<int>(i));
  }
  std::sort(sorted.begin(), sorted.end());
}

int Runtime::GroupIndex::rankOf(int procIdx, std::size_t size) const {
  if (base >= 0) {
    const int r = procIdx - base;
    return (r >= 0 && r < static_cast<int>(size)) ? r : -1;
  }
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), std::make_pair(procIdx, -1));
  if (it == sorted.end() || it->first != procIdx) return -1;
  return it->second;
}

int Runtime::rankIn(Comm c, int procIdx) const {
  const CommInfo& info = commInfo(c);
  const int a = info.rankInA(procIdx);
  if (a >= 0) return a;
  return info.rankInB(procIdx);
}

int Runtime::localSize(Comm c, int procIdx) const {
  const CommInfo& info = commInfo(c);
  if (info.rankInB(procIdx) >= 0) return static_cast<int>(info.groupB.size());
  return static_cast<int>(info.groupA.size());
}

int Runtime::remoteSize(Comm c, int procIdx) const {
  const CommInfo& info = commInfo(c);
  if (!info.inter) return static_cast<int>(info.groupA.size());
  if (info.rankInB(procIdx) >= 0) return static_cast<int>(info.groupA.size());
  return static_cast<int>(info.groupB.size());
}

int Runtime::sendTarget(Comm c, int srcProcIdx, int dstRank) const {
  const CommInfo& info = commInfo(c);
  if (!info.inter) {
    return info.groupA.at(static_cast<std::size_t>(dstRank));
  }
  // Intercomm: the destination rank indexes the *other* group.
  const auto& remote =
      info.rankInA(srcProcIdx) >= 0 ? info.groupB : info.groupA;
  return remote.at(static_cast<std::size_t>(dstRank));
}

Comm Runtime::makeIntracomm(std::vector<int> members) {
  CommInfo info;
  info.id = static_cast<int>(comms_.size());
  info.inter = false;
  info.groupA = std::move(members);
  info.indexA.build(info.groupA);
  comms_.push_back(std::move(info));
  return Comm(comms_.back().id);
}

Comm Runtime::makeIntercomm(std::vector<int> groupA, std::vector<int> groupB) {
  CommInfo info;
  info.id = static_cast<int>(comms_.size());
  info.inter = true;
  info.groupA = std::move(groupA);
  info.groupB = std::move(groupB);
  info.indexA.build(info.groupA);
  info.indexB.build(info.groupB);
  comms_.push_back(std::move(info));
  return Comm(comms_.back().id);
}

Comm Runtime::internComm(std::uint64_t key, const std::vector<int>& members) {
  const auto it = internedComms_.find(key);
  if (it != internedComms_.end()) return it->second;
  const Comm c = makeIntracomm(members);
  internedComms_.emplace(key, c);
  return c;
}

// ---- Message engine -----------------------------------------------------------

bool Runtime::matches(const RequestState& r, const Proc::UnexpectedMsg& m) {
  return r.commId == m.commId &&
         (r.srcFilter == AnySource || r.srcFilter == m.srcRank) &&
         (r.tagFilter == AnyTag || r.tagFilter == m.tag);
}

Request Runtime::postSend(Proc& src, Comm c, int dstRank, int tag,
                          ConstBytes data, SendMode mode) {
  const int dstIdx = sendTarget(c, src.idx, dstRank);
  const int srcRank = rankIn(c, src.idx);
  if (srcRank < 0) throw std::logic_error("sender not a member of comm");

  const Request req = newRequest(src);
  RequestState& reqState = requests_.get(req);
  reqState.commId = c.id();

  const bool rendezvous =
      mode == SendMode::Synchronous || data.size() > params_.eagerThreshold;

  Proc::UnexpectedMsg msg;
  msg.commId = c.id();
  msg.srcRank = srcRank;
  msg.tag = tag;
  msg.bytes = data.size();
  msg.srcProcIdx = src.idx;
  if (obs::Tracer* tr = engine().tracer()) {
    MetricIds& ids = metricIds();
    obs::Metrics& m = tr->metrics();
    m.add(rendezvous ? m.counter(ids.sendsRendezvous, "pmpi.sends.rendezvous")
                     : m.counter(ids.sendsEager, "pmpi.sends.eager"));
  }
  if (obs::Tracer* tl = engine().timeline()) {
    traceMsgEvent(engine(), *tl, src, "send.post",
                  {{"dst", static_cast<double>(dstRank)},
                   {"tag", static_cast<double>(tag)},
                   {"bytes", static_cast<double>(data.size())},
                   {"rdv", rendezvous ? 1.0 : 0.0}});
  }
  if (rendezvous) {
    // RTS carries no payload; the sender's buffer is pinned in the request
    // until the RDMA transfer completes.
    reqState.sendBuf = data;
    msg.rendezvous = true;
    msg.sendReq = req;
    transportSend(src.idx, dstIdx, params_.ctrlMsgBytes,
                  [this, dstIdx, msg]() mutable {
                    deliverRts(dstIdx, std::move(msg));
                  });
  } else {
    // Eager: the payload is copied into the *destination* rank's arena at
    // send time (the simulated copy-out), so the message itself stays a
    // 48-byte ticket and the send buffer is free immediately.
    msg.payloadLen = static_cast<std::uint32_t>(data.size());
    msg.payloadOff = procs_[static_cast<std::size_t>(dstIdx)]
                         .eagerPayloads.store(data);
    reqState.done = true;
    transportSend(src.idx, dstIdx,
                  static_cast<double>(data.size()) + params_.headerBytes,
                  [this, dstIdx, msg]() mutable {
                    deliverEager(dstIdx, std::move(msg));
                  });
  }
  return req;
}

Request Runtime::postRecv(Proc& dst, Comm c, int srcRank, int tag, Bytes buf) {
  const Request req = newRequest(dst);
  RequestState& reqState = requests_.get(req);
  reqState.isRecv = true;
  reqState.commId = c.id();
  reqState.srcFilter = srcRank;
  reqState.tagFilter = tag;
  reqState.recvBuf = buf;

  const auto pred = [&](const Proc::UnexpectedMsg& m) {
    return matches(reqState, m);
  };
  std::optional<Proc::UnexpectedMsg> hit;
  if (chooser_ == nullptr) {
    hit = dst.unexpected.extractFirst(pred);
  } else {
    // Choice point: enumerate the per-source FIFO heads among the eligible
    // messages.  MPI's non-overtaking rule fixes the order *within* each
    // source, so the only legitimate freedom is which source a wildcard
    // receive drains first; alternative 0 is the overall-first eligible
    // message, i.e. exactly what extractFirst would have taken.
    std::vector<std::size_t> slots;
    std::vector<std::uint64_t> keys;
    dst.unexpected.forEachMatch(
        pred, [&](std::size_t slot, const Proc::UnexpectedMsg& m) {
          const auto key = static_cast<std::uint64_t>(m.srcProcIdx);
          if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
          slots.push_back(slot);
          keys.push_back(key);
        });
    if (!slots.empty()) {
      std::size_t pick = 0;
      if (slots.size() > 1) {
        pick = static_cast<std::size_t>(chooser_->choose(
            {mc::Site::PmpiMatch, static_cast<std::uint64_t>(dst.idx), keys}));
      }
      hit = dst.unexpected.extractAt(slots[pick]);
    }
  }
  if (hit) {
    Proc::UnexpectedMsg msg = std::move(*hit);
    if (obs::Tracer* tr = engine().tracer()) {
      traceQueueDepth(*tr, metricIds().unexpectedDepth,
                      "pmpi.unexpected.depth", -1.0);
    }
    if (obs::Tracer* tl = engine().timeline()) {
      traceMsgEvent(engine(), *tl, dst, "msg.match",
                    {{"src", static_cast<double>(msg.srcRank)},
                     {"tag", static_cast<double>(msg.tag)},
                     {"bytes", static_cast<double>(msg.bytes)}});
    }
    if (msg.rendezvous) {
      startRendezvousTransfer(dst, req, std::move(msg));
    } else {
      completeEagerRecv(dst, req, std::move(msg));
    }
    return req;
  }
  dst.posted.push(req);
  if (obs::Tracer* tr = engine().tracer()) {
    traceQueueDepth(*tr, metricIds().postedDepth, "pmpi.posted.depth", 1.0);
  }
  return req;
}

bool Runtime::tryMatchArrival(Proc& dst, Proc::UnexpectedMsg& msg) {
  std::optional<Request> hit = dst.posted.extractFirst(
      [&](const Request& r) { return matches(requests_.get(r), msg); });
  if (!hit) return false;
  const Request req = *hit;
  if (obs::Tracer* tr = engine().tracer()) {
    traceQueueDepth(*tr, metricIds().postedDepth, "pmpi.posted.depth", -1.0);
  }
  if (obs::Tracer* tl = engine().timeline()) {
    traceMsgEvent(engine(), *tl, dst, "msg.match",
                  {{"src", static_cast<double>(msg.srcRank)},
                   {"tag", static_cast<double>(msg.tag)},
                   {"bytes", static_cast<double>(msg.bytes)}});
  }
  if (msg.rendezvous) {
    startRendezvousTransfer(dst, req, std::move(msg));
  } else {
    completeEagerRecv(dst, req, std::move(msg));
  }
  return true;
}

void Runtime::deliverEager(int dstProcIdx, Proc::UnexpectedMsg msg) {
  Proc& dst = procs_[static_cast<std::size_t>(dstProcIdx)];
  if (!tryMatchArrival(dst, msg)) {
    if (!procLive(dst) && msg.payloadLen > 0) {
      // The rank died (drain resets its arena): nothing will ever consume
      // this payload, so don't let the late arrival re-pin bytes.
      dst.eagerPayloads.release(msg.payloadOff, msg.payloadLen);
      msg.payloadLen = 0;
    }
    traceUnexpected(dst, msg);
    dst.unexpected.push(msg);
  }
}

void Runtime::deliverRts(int dstProcIdx, Proc::UnexpectedMsg msg) {
  Proc& dst = procs_[static_cast<std::size_t>(dstProcIdx)];
  if (!tryMatchArrival(dst, msg)) {
    traceUnexpected(dst, msg);
    dst.unexpected.push(msg);
  }
}

void Runtime::traceUnexpected(const Proc& dst, const Proc::UnexpectedMsg& msg) {
  if (obs::Tracer* tr = engine().tracer()) {
    traceQueueDepth(*tr, metricIds().unexpectedDepth, "pmpi.unexpected.depth",
                    1.0);
  }
  if (obs::Tracer* tl = engine().timeline()) {
    traceMsgEvent(engine(), *tl, dst, "msg.unexpected",
                  {{"src", static_cast<double>(msg.srcRank)},
                   {"tag", static_cast<double>(msg.tag)}});
  }
}

void Runtime::completeEagerRecv(Proc& dst, Request req, Proc::UnexpectedMsg msg) {
  // Receiver-side protocol processing happens after the match.  The closure
  // re-resolves both handles at fire time: a 48-byte msg plus a request
  // ticket keeps it inside the event's inline buffer.
  const hw::Node& node = machine_.node(dst.nodeId);
  engine().schedule(node.mpiSwOverhead, [this, req, msg]() {
    RequestState* rs = requests_.find(req);
    if (rs == nullptr) return;  // receiver drained; arena was reset with it
    Proc& owner = procs_[static_cast<std::size_t>(rs->ownerProc)];
    // The rank may have been cancelled (failure injection) between the
    // match and this completion; its receive buffer lives on the unwound
    // stack, so the copy must not happen.
    if (!procLive(owner)) return;
    if (msg.payloadLen > rs->recvBuf.size()) {
      throw std::runtime_error("pmpi: eager message truncates receive buffer");
    }
    if (msg.payloadLen > 0) {
      std::memcpy(rs->recvBuf.data(), owner.eagerPayloads.at(msg.payloadOff),
                  msg.payloadLen);
      owner.eagerPayloads.release(msg.payloadOff, msg.payloadLen);
    }
    completeRequest(owner, req, msg.srcRank, msg.tag, msg.payloadLen);
  });
}

void Runtime::startRendezvousTransfer(Proc& dst, Request req,
                                      Proc::UnexpectedMsg msg) {
  if (msg.bytes > requests_.get(req).recvBuf.size()) {
    throw std::runtime_error("pmpi: rendezvous message truncates receive buffer");
  }
  const hw::Node& dstNode = machine_.node(dst.nodeId);
  if (obs::Tracer* tl = engine().timeline()) {
    traceMsgEvent(engine(), *tl, dst, "rdv.cts",
                  {{"src", static_cast<double>(msg.srcRank)},
                   {"bytes", static_cast<double>(msg.bytes)}});
  }

  // Receiver processes the RTS, sends the CTS; on CTS arrival the payload
  // moves as one RDMA transfer straight into the receive buffer (no
  // further endpoint software on the payload path).
  const int dstIdx = dst.idx;
  const int srcIdx = msg.srcProcIdx;
  engine().schedule(dstNode.mpiSwOverhead, [this, dstIdx, req, srcIdx, msg]() {
    transportSend(dstIdx, srcIdx, params_.ctrlMsgBytes,
                  [this, dstIdx, req, srcIdx, msg]() {
      transportSend(srcIdx, dstIdx,
                    static_cast<double>(msg.bytes) + params_.headerBytes,
                    [this, dstIdx, req, msg]() {
                      Proc& dst = procs_[static_cast<std::size_t>(dstIdx)];
                      Proc& src =
                          procs_[static_cast<std::size_t>(msg.srcProcIdx)];
                      // Both stacks must still exist: the source buffer is
                      // pinned on the sender, the destination buffer on the
                      // receiver.  A cancelled rank invalidates its side —
                      // and its drain may already have recycled either
                      // request slot, which the stale-handle check catches.
                      if (!procLive(dst) || !procLive(src)) return;
                      RequestState* rr = requests_.find(req);
                      RequestState* ss = requests_.find(msg.sendReq);
                      if (rr == nullptr || ss == nullptr) return;
                      std::memcpy(rr->recvBuf.data(), ss->sendBuf.data(),
                                  msg.bytes);
                      completeRequest(dst, req, msg.srcRank, msg.tag,
                                      msg.bytes);
                      completeRequest(src, msg.sendReq, msg.srcRank, msg.tag,
                                      msg.bytes);
                    });
    });
  });
}

void Runtime::completeRequest(Proc& owner, Request req, int srcRank, int tag,
                              std::size_t bytes) {
  RequestState* s = requests_.find(req);
  if (s == nullptr) return;  // drained concurrently; nobody is waiting
  s->done = true;
  s->status.source = srcRank;
  s->status.tag = tag;
  s->status.bytes = bytes;
  if (obs::Tracer* tl = engine().timeline()) {
    traceMsgEvent(engine(), *tl, owner, "msg.complete",
                  {{"src", static_cast<double>(srcRank)},
                   {"tag", static_cast<double>(tag)},
                   {"bytes", static_cast<double>(bytes)}});
  }
  if (owner.sproc != nullptr) engine().wake(*owner.sproc);
}

// ---- Reliable transport ---------------------------------------------------------

bool Runtime::procLive(const Proc& p) const {
  return p.sproc != nullptr && p.sproc->live();
}

Runtime::TransportChannel& Runtime::channel(int srcIdx, int dstIdx) {
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(srcIdx))
                             << 32) |
                            static_cast<std::uint32_t>(dstIdx);
  std::uint32_t slot = channelIndex_.lookup(key);
  if (slot == ChannelIndex::kNone) {
    slot = static_cast<std::uint32_t>(channelSlab_.size());
    channelSlab_.emplace_back();
    channelIndex_.insert(key, slot);
  }
  return channelSlab_[slot];
}

void Runtime::transportSend(int srcIdx, int dstIdx, double bytes,
                            std::function<void()> deliver) {
  if (!params_.reliable) {
    const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
    const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
    fabric_.send(srcEp, dstEp, bytes, std::move(deliver));
    return;
  }
  TransportChannel& ch = channel(srcIdx, dstIdx);
  const std::uint32_t seq = ch.nextSendSeq++;
  TransportChannel::Inflight inf;
  inf.bytes = bytes;
  inf.deliver = std::move(deliver);
  // First-shot RTO: configured base plus a generous serialization estimate
  // so big rendezvous payloads under contention don't time out spuriously.
  const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
  const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
  inf.rto = params_.retransmitTimeout +
            4 * sim::SimTime::seconds(
                    bytes / (fabric_.bottleneckBwGBs(srcEp, dstEp) * 1e9));
  ch.inflight.emplace(seq, std::move(inf));
  transmitFrame(srcIdx, dstIdx, seq);
}

void Runtime::transmitFrame(int srcIdx, int dstIdx, std::uint32_t seq) {
  TransportChannel& ch = channel(srcIdx, dstIdx);
  const TransportChannel::Inflight* inf = ch.inflight.find(seq);
  if (inf == nullptr) return;  // acked in the meantime
  const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
  const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
  fabric_.send(srcEp, dstEp, inf->bytes, [this, srcIdx, dstIdx, seq] {
    onFrameArrive(srcIdx, dstIdx, seq);
  });
  engine().schedule(inf->rto, [this, srcIdx, dstIdx, seq] {
    onFrameTimeout(srcIdx, dstIdx, seq);
  });
}

void Runtime::onFrameArrive(int srcIdx, int dstIdx, std::uint32_t seq) {
  TransportChannel& ch = channel(srcIdx, dstIdx);
  // Ack every arrival, duplicates included — the ack for the first copy
  // may itself have been lost.  Acks ride the fabric (and its faults).
  const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
  const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
  fabric_.send(dstEp, srcEp, params_.ackBytes, [this, srcIdx, dstIdx, seq] {
    onFrameAck(srcIdx, dstIdx, seq);
  });
  if (params_.brokenDedupForTest) {
    // TEST-ONLY seeded defect (mc acceptance criterion): the dedup and
    // reorder guards are bypassed and every arrival — spurious retransmits
    // and gap-jumping later frames alike — goes straight to matching.  The
    // exploration corpus must flag this as an exactly-once / in-order
    // violation; never set outside the model checker's own tests.
    const TransportChannel::Inflight* bit = ch.inflight.find(seq);
    if (bit != nullptr && bit->deliver) {
      const std::function<void()> dup = bit->deliver;  // stays armed
      dup();
    }
    return;
  }
  if (seq < ch.nextDeliverSeq || ch.reorder.contains(seq)) {
    // Spurious retransmit of a frame already handed over (or queued).
    if (obs::Tracer* tr = engine().tracer()) {
      obs::Metrics& m = tr->metrics();
      m.add(m.counter(metricIds().duplicates, "pmpi.transport.duplicates"));
    }
    return;
  }
  TransportChannel::Inflight* it = ch.inflight.find(seq);
  if (it == nullptr || !it->deliver) return;  // defensive
  ch.reorder.emplace(seq, std::move(it->deliver));
  // Hand frames to the matching engine strictly in send order: a
  // retransmitted earlier message must not be overtaken by a later one
  // (MPI non-overtaking), so later arrivals wait in the reorder buffer.
  // `ch` stays a valid reference across fn(): the channel slab never moves.
  while (ch.reorder.contains(ch.nextDeliverSeq)) {
    std::function<void()> fn = ch.reorder.take(ch.nextDeliverSeq);
    ++ch.nextDeliverSeq;
    fn();
  }
}

void Runtime::onFrameAck(int srcIdx, int dstIdx, std::uint32_t seq) {
  channel(srcIdx, dstIdx).inflight.erase(seq);
}

void Runtime::onFrameTimeout(int srcIdx, int dstIdx, std::uint32_t seq) {
  TransportChannel& ch = channel(srcIdx, dstIdx);
  TransportChannel::Inflight* it = ch.inflight.find(seq);
  if (it == nullptr) return;  // acked
  // Frames between dead procs (whole-job kill) are abandoned quietly; the
  // supervisor handles the job, not the transport.
  if (!procLive(proc(srcIdx)) && !procLive(proc(dstIdx))) {
    ch.inflight.erase(seq);
    return;
  }
  TransportChannel::Inflight& inf = *it;
  if (inf.tries >= params_.retransmitBudget) {
    onPeerUnreachable(srcIdx, dstIdx, seq);
    return;
  }
  ++inf.tries;
  const sim::SimTime grown = sim::SimTime::seconds(
      inf.rto.toSeconds() * params_.retransmitBackoff);
  inf.rto = std::min(grown, std::max(params_.retransmitCap, inf.rto));
  fabric_.noteRetransmit();
  if (obs::Tracer* tr = engine().tracer()) {
    obs::Metrics& m = tr->metrics();
    m.add(m.counter(metricIds().retransmits, "pmpi.transport.retransmits"));
  }
  if (chooser_ != nullptr) {
    // Choice point: a retransmission may go out immediately (slot 0, the
    // historical behavior) or after a one-microsecond jitter (slot 1),
    // which lets it reorder against other traffic queued at this instant.
    static constexpr std::uint64_t kSlots[2] = {0, 1};
    const std::uint64_t locus =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(srcIdx)) << 32) |
        static_cast<std::uint32_t>(dstIdx);
    if (chooser_->choose({mc::Site::Retransmit, locus, kSlots}) == 1) {
      engine().schedule(SimTime::us(1), [this, srcIdx, dstIdx, seq] {
        transmitFrame(srcIdx, dstIdx, seq);
      });
      return;
    }
  }
  transmitFrame(srcIdx, dstIdx, seq);
}

void Runtime::onPeerUnreachable(int srcIdx, int dstIdx, std::uint32_t seq) {
  channel(srcIdx, dstIdx).inflight.erase(seq);
  ++unreachablePeers_;
  if (obs::Tracer* tr = engine().tracer()) {
    obs::Metrics& m = tr->metrics();
    m.add(m.counter(metricIds().unreachable, "pmpi.transport.unreachable"));
  }
  // Surface as a rank failure, not a hang: tear down the involved job(s)
  // exactly like a node loss, so checkpoint/restart supervision takes over.
  const int srcJob = proc(srcIdx).jobId;
  if (srcJob >= 0 && !jobDone(srcJob)) killJob(srcJob);
  const int dstJob = proc(dstIdx).jobId;
  if (dstJob >= 0 && dstJob != srcJob && !jobDone(dstJob)) killJob(dstJob);
}

// ---- Process management ---------------------------------------------------------

Job& Runtime::launch(const JobSpec& spec) {
  return startJob(spec.appName, spec.nodes, spec.procsPerNode,
                  spec.threadsPerProc, SimTime::zero(), Comm{}, -1);
}

Job& Runtime::launch(const std::string& appName, hw::NodeKind kind,
                     int nodeCount, int procsPerNode, int threadsPerProc) {
  auto alloc = rm_.allocate(kind, nodeCount);
  if (!alloc) {
    throw std::runtime_error("pmpi: not enough free " +
                             std::string(hw::toString(kind)) + " nodes");
  }
  return startJob(appName, alloc->nodes, procsPerNode, threadsPerProc,
                  SimTime::zero(), Comm{}, alloc->id);
}

Job& Runtime::startJob(const std::string& appName,
                       const std::vector<int>& nodes, int procsPerNode,
                       int threadsPerProc, SimTime startDelay, Comm parent,
                       int allocationId) {
  if (nodes.empty() || procsPerNode < 1) {
    throw std::invalid_argument("pmpi: empty job");
  }
  const RankMain& main = registry_.lookup(appName);

  jobs_.emplace_back();
  Job& job = jobs_.back();
  job.id = static_cast<int>(jobs_.size()) - 1;
  job.appName = appName;
  job.allocationId = allocationId;

  const int nprocs = static_cast<int>(nodes.size()) * procsPerNode;
  std::vector<int> members;
  for (int r = 0; r < nprocs; ++r) {
    Proc& proc = procs_.emplace();
    proc.idx = static_cast<int>(procs_.size()) - 1;
    proc.jobId = job.id;
    proc.rank = r;
    proc.nodeId = nodes.at(static_cast<std::size_t>(r / procsPerNode));
    const int hwThreads = machine_.node(proc.nodeId).cpu.threads();
    proc.threads = threadsPerProc > 0 ? threadsPerProc
                                      : std::max(1, hwThreads / procsPerNode);
    proc.parent = parent;
    members.push_back(proc.idx);
  }
  job.procIdx = members;
  job.liveProcs = nprocs;
  job.world = makeIntracomm(members);

  for (const int pi : members) {
    Proc& p = procs_[static_cast<std::size_t>(pi)];
    p.world = job.world;
    const std::string name = appName + ":j" + std::to_string(job.id) + ":r" +
                             std::to_string(p.rank);
    p.sproc = &engine().spawnAfter(
        startDelay, name, [this, pi, &main, &job](sim::Context& ctx) {
          Proc& self = procs_[static_cast<std::size_t>(pi)];
          Env env(*this, self, ctx);
          struct Drain {  // runs also when the rank throws or is cancelled
            Runtime* rt;
            Job* job;
            Proc* self;
            ~Drain() {
              // Detach communication state: in-flight messages must never
              // match a receive whose buffer lived on this (now unwound)
              // stack — relevant when failure injection cancels ranks.
              // Reclaim everything the rank pinned: queued messages, eager
              // payload bytes, and every request slot it still owned (late
              // completions resolve those handles as stale and bail out).
              self->posted.clear();
              self->unexpected.clear();
              self->eagerPayloads.reset();
              rt->requests_.releaseAll(self->ownedRequests);
              obs::Tracer* tr = rt->engine().tracer();
              if (tr != nullptr && self->sproc != nullptr) {
                // Final per-rank time split.
                const std::string key = "rank[" + self->sproc->name() + "]";
                obs::Metrics& m = tr->metrics();
                m.gaugeSet(key + ".compute_sec", self->computeSec);
                m.gaugeSet(key + ".comm_sec", self->commSec);
                m.gaugeSet(key + ".io_sec", self->ioSec);
              }
              if (--job->liveProcs == 0) {
                if (job->allocationId >= 0) rt->rm_.release(job->allocationId);
                if (rt->drainHook_) {
                  // Deferred to a zero-delay event: the hook may relaunch
                  // jobs, which must not run while this rank's stack is
                  // still unwinding.
                  Runtime* r = rt;
                  const int id = job->id;
                  rt->engine().schedule(SimTime::zero(), [r, id] {
                    if (r->drainHook_) r->drainHook_(id);
                  });
                }
              }
            }
          } drain{this, &job, &self};
          main(env);
        });
  }
  return job;
}

Comm Runtime::spawnJob(Proc& root, Comm over, const std::string& appName,
                       int nprocs, const SpawnOptions& opts) {
  const CommInfo& overInfo = commInfo(over);
  if (overInfo.inter) {
    throw std::invalid_argument("pmpi: spawn over an intercommunicator");
  }
  const int ppn = std::max(1, opts.procsPerNode);
  const int nNodes = (nprocs + ppn - 1) / ppn;

  std::optional<rm::Allocation> alloc;
  if (!opts.nodes.empty()) {
    alloc = rm_.allocateNodes(opts.nodes);
  } else {
    alloc = rm_.allocate(opts.partition, nNodes);
  }
  if (!alloc) {
    throw std::runtime_error("pmpi: spawn failed, no free nodes in partition " +
                             std::string(hw::toString(opts.partition)));
  }

  const SimTime cost = params_.spawnBase + nprocs * params_.spawnPerProc;
  // Children come up once remote-exec + wire-up completed.
  Job& child = startJob(appName, alloc->nodes, ppn, opts.threadsPerProc, cost,
                        Comm{}, alloc->id);
  const Comm inter = makeIntercomm(overInfo.groupA, child.procIdx);
  for (const int pi : child.procIdx) {
    procs_[static_cast<std::size_t>(pi)].parent = inter;
  }
  (void)root;
  return inter;
}

void Runtime::killJob(int jobId) {
  for (const int pi : job(jobId).procIdx) {
    Proc& p = procs_[static_cast<std::size_t>(pi)];
    if (p.sproc != nullptr && p.sproc->live()) engine().cancel(*p.sproc);
  }
}

Runtime::JobTimes Runtime::jobTimes(int id) const {
  JobTimes t;
  for (const int pi : job(id).procIdx) {
    const Proc& p = proc(pi);
    t.computeSec += p.computeSec;
    t.commSec += p.commSec;
    t.ioSec += p.ioSec;
  }
  return t;
}

// ---- Memory telemetry -----------------------------------------------------------

Runtime::MemoryStats Runtime::memoryStats() const {
  MemoryStats m;
  m.procSlabBytes = procs_.capacityBytes();
  m.requestSlots = requests_.slotCount();
  m.requestPoolBytes = requests_.capacityBytes();
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const Proc& p = procs_[i];
    m.payloadArenaBytes += p.eagerPayloads.capacityBytes();
    m.payloadArenaPeakBytes += p.eagerPayloads.peakBytes();
    m.matchQueueBytes += p.unexpected.capacityBytes() + p.posted.capacityBytes();
    m.matchQueuePeakEntries += p.unexpected.peakSize() + p.posted.peakSize();
  }
  m.channelCount = channelSlab_.size();
  m.channelBytes =
      channelIndex_.capacityBytes() + channelSlab_.size() * sizeof(TransportChannel);
  for (const TransportChannel& ch : channelSlab_) {
    m.channelBytes += ch.inflight.capacityBytes() + ch.reorder.capacityBytes();
  }
  return m;
}

}  // namespace cbsim::pmpi
