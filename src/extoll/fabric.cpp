#include "extoll/fabric.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "hw/topology.hpp"
#include "obs/tracer.hpp"

namespace cbsim::extoll {

using sim::SimTime;

namespace {

[[nodiscard]] std::uint64_t pairKey(int a, int b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

}  // namespace

Fabric::Fabric(hw::Machine& machine, FabricOptions options)
    : machine_(machine), engine_(machine.engine()), options_(options) {
  const auto& cfg = machine_.config();
  const int eps = machine_.endpointCount();
  const int nLinks = 2 * eps + 2 * static_cast<int>(cfg.trunks.size());
  linkBusy_.assign(static_cast<std::size_t>(nLinks), SimTime::zero());
  linkBwGBs_.resize(static_cast<std::size_t>(nLinks));
  linkEff_.resize(static_cast<std::size_t>(nLinks));
  for (int ep = 0; ep < eps; ++ep) {
    const auto& net = cfg.switches.at(
        static_cast<std::size_t>(machine_.endpointSwitch(ep))).net;
    for (const int l : {upLink(ep), downLink(ep)}) {
      linkBwGBs_[static_cast<std::size_t>(l)] = net.linkBandwidthGBs;
      linkEff_[static_cast<std::size_t>(l)] = net.protocolEfficiency;
    }
  }
  for (std::size_t t = 0; t < cfg.trunks.size(); ++t) {
    const auto& net = cfg.switches.at(static_cast<std::size_t>(cfg.trunks[t].switchA)).net;
    for (const int l : {trunkLink(static_cast<int>(t), true),
                        trunkLink(static_cast<int>(t), false)}) {
      linkBwGBs_[static_cast<std::size_t>(l)] = cfg.trunks[t].bandwidthGBs;
      linkEff_[static_cast<std::size_t>(l)] = net.protocolEfficiency;
    }
  }
  for (int id : machine_.nodesOfKind(hw::NodeKind::Bridge)) {
    bridgeNodes_.push_back(id);
  }
  // Switch adjacency in trunk-index order (trunks iterate ascending, so
  // each per-switch edge list comes out sorted — the property the
  // lexicographic path enumeration depends on).
  switchAdj_.resize(cfg.switches.size());
  for (std::size_t t = 0; t < cfg.trunks.size(); ++t) {
    const auto& tr = cfg.trunks[t];
    switchAdj_[static_cast<std::size_t>(tr.switchA)].push_back(
        {static_cast<int>(t), tr.switchB, true});
    switchAdj_[static_cast<std::size_t>(tr.switchB)].push_back(
        {static_cast<int>(t), tr.switchA, false});
  }
  routing_ = options_.routing;
  if (routing_ == RoutingMode::Auto) {
    const bool fatTree =
        cfg.topology && cfg.topology->kind == hw::TopologySpec::Kind::FatTree;
    routing_ = fatTree ? RoutingMode::Structural : RoutingMode::Enumerated;
  }
  if (options_.model == CongestionModel::Flow) {
    linkFlows_.resize(static_cast<std::size_t>(nLinks));
  }
}

int Fabric::effectiveSwitch(int ep, int peerSwitch) const {
  if (ep < machine_.nodeCount() &&
      machine_.node(ep).kind == hw::NodeKind::Bridge) {
    return peerSwitch;  // dual-homed: one NIC per network
  }
  return machine_.endpointSwitch(ep);
}

// ---- Routing ----------------------------------------------------------------

const std::vector<std::vector<Fabric::Hop>>& Fabric::switchPaths(
    int s1, int s2) const {
  const std::uint64_t key = pairKey(s1, s2);
  const auto it = switchPathsCache_.find(key);
  if (it != switchPathsCache_.end()) return it->second;

  // BFS from the destination gives hop distances; a DFS from the source
  // that only follows distance-decreasing edges (in trunk-index order)
  // then yields every equal-cost shortest path, lexicographically.
  const int n = static_cast<int>(switchAdj_.size());
  std::vector<int> dist(static_cast<std::size_t>(n), -1);
  std::vector<int> queue;
  queue.reserve(static_cast<std::size_t>(n));
  dist[static_cast<std::size_t>(s2)] = 0;
  queue.push_back(s2);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int cur = queue[head];
    for (const Edge& e : switchAdj_[static_cast<std::size_t>(cur)]) {
      if (dist[static_cast<std::size_t>(e.to)] >= 0) continue;
      dist[static_cast<std::size_t>(e.to)] =
          dist[static_cast<std::size_t>(cur)] + 1;
      queue.push_back(e.to);
    }
  }
  std::vector<std::vector<Hop>> paths;
  if (dist[static_cast<std::size_t>(s1)] >= 0) {
    std::vector<Hop> stack;
    const std::function<void(int)> walk = [&](int cur) {
      if (cur == s2) {
        paths.push_back(stack);
        return;
      }
      for (const Edge& e : switchAdj_[static_cast<std::size_t>(cur)]) {
        if (dist[static_cast<std::size_t>(e.to)] !=
            dist[static_cast<std::size_t>(cur)] - 1) {
          continue;
        }
        stack.push_back({e.trunk, e.forward});
        walk(e.to);
        stack.pop_back();
      }
    };
    walk(s1);
  }
  return switchPathsCache_.emplace(key, std::move(paths)).first->second;
}

bool Fabric::structuralPath(int s1, int s2, int selector,
                            std::vector<Hop>& hops) const {
  const hw::TopologySpec* topo = machine_.config().topology.get();
  if (topo == nullptr || topo->kind != hw::TopologySpec::Kind::FatTree) {
    return false;
  }
  const hw::FatTreeLayout ft = topo->fatTree();
  if (!ft.isLeaf(s1) || !ft.isLeaf(s2)) return false;
  // `spines` equal-cost up/down paths; the tie-break below matches the
  // enumerated order because trunk(l, s) indices are spine-minor.
  const int k = selector % topo->spines;
  hops.clear();
  hops.push_back({ft.trunk(s1, k), true});
  hops.push_back({ft.trunk(s2, k), false});
  return true;
}

Fabric::Path Fabric::assemblePath(int srcEp, int s1, int dstEp, int s2,
                                  const std::vector<Hop>& hops) const {
  const auto& cfg = machine_.config();
  Path p;
  p.links.reserve(hops.size() + 2);
  const auto& netS = cfg.switches[static_cast<std::size_t>(s1)].net;
  const auto& netD = cfg.switches[static_cast<std::size_t>(s2)].net;
  p.links.push_back(upLink(srcEp));
  p.latency = netS.nicLatency + netS.wireLatency + netS.switchLatency;
  for (const Hop& h : hops) {
    const hw::TrunkSpec& t = cfg.trunks[static_cast<std::size_t>(h.trunk)];
    p.links.push_back(trunkLink(h.trunk, h.forward));
    const int next = h.forward ? t.switchB : t.switchA;
    p.latency +=
        t.latency + cfg.switches[static_cast<std::size_t>(next)].net.switchLatency;
  }
  p.links.push_back(downLink(dstEp));
  p.latency += netD.wireLatency + netD.nicLatency;
  p.bwGBs = 1e18;
  for (const int l : p.links) {
    p.bwGBs = std::min(p.bwGBs, linkBwGBs_[static_cast<std::size_t>(l)] *
                                    linkEff_[static_cast<std::size_t>(l)]);
  }
  return p;
}

Fabric::Path Fabric::computePath(int srcEp, int dstEp) const {
  const int s1 = effectiveSwitch(srcEp, machine_.endpointSwitch(dstEp));
  const int s2 = effectiveSwitch(dstEp, s1);
  if (s1 == s2) return assemblePath(srcEp, s1, dstEp, s2, {});
  // Equal-cost tie-break: (srcEp + dstEp) % candidates.  Both routers use
  // it, and the structural one evaluates it without enumerating anything.
  const int selector = srcEp + dstEp;
  std::vector<Hop> hops;
  bool have = routing_ == RoutingMode::Structural &&
              structuralPath(s1, s2, selector, hops);
  if (!have) {
    const auto& candidates = switchPaths(s1, s2);
    if (!candidates.empty()) {
      hops = candidates[static_cast<std::size_t>(selector) %
                        candidates.size()];
      have = true;
    }
  }
  if (!have) {
    if (machine_.config().bridgeBetweenSwitches && !bridgeNodes_.empty()) {
      // Peek only: the round-robin advances when traffic actually takes
      // the bridge (deliverLeg), so this query stays side-effect-free.
      Path p;
      p.latency = SimTime::zero();
      p.bwGBs = 0.0;
      p.bridgeNode = bridgeNodes_[nextBridge_ % bridgeNodes_.size()];
      return p;
    }
    throw std::runtime_error("fabric: no route between switches");
  }
  return assemblePath(srcEp, s1, dstEp, s2, hops);
}

const Fabric::Path& Fabric::route(int srcEp, int dstEp) const {
  const std::uint64_t key = pairKey(srcEp, dstEp);
  const auto it = pathCache_.find(key);
  if (it != pathCache_.end()) {
    ++cacheHits_;
    return it->second;
  }
  Path p = computePath(srcEp, dstEp);
  if (p.bridgeNode >= 0) {
    // Bridged paths carry the *next* round-robin pick — a mutable
    // decision that must be re-peeked per query, so they never enter the
    // cache.
    bridgeScratch_ = std::move(p);
    return bridgeScratch_;
  }
  if (pathCache_.size() >= kRouteCacheCap) pathCache_.clear();
  return pathCache_.emplace(key, std::move(p)).first->second;
}

std::size_t Fabric::routeCacheBytes() const {
  // Bucket array + one node per entry (unordered_map's actual node layout
  // is implementation-defined; key + value + two pointers is the common
  // shape), plus each memoized path's heap-allocated link list.
  std::size_t total =
      pathCache_.bucket_count() * sizeof(void*) +
      pathCache_.size() * (sizeof(std::uint64_t) + sizeof(Path) + 2 * sizeof(void*));
  for (const auto& [key, path] : pathCache_) {
    total += path.links.capacity() * sizeof(int);
  }
  return total;
}

Fabric::RouteInfo Fabric::routeInfo(int srcEp, int dstEp) const {
  const Path& p = route(srcEp, dstEp);
  return {p.links, p.latency, p.bwGBs, p.bridgeNode};
}

// ---- Packet/occupancy congestion model --------------------------------------

SimTime Fabric::occupy(const Path& path, double bytes, double bwFactor) {
  SimTime t0 = engine_.now();
  for (const int l : path.links) {
    t0 = std::max(t0, linkBusy_[static_cast<std::size_t>(l)]);
  }
  // Degradation is sampled once, at injection: a window closing mid-flight
  // still applies to the whole transfer (NIC rate negotiation granularity).
  const SimTime occ = SimTime::seconds(bytes / (path.bwGBs * bwFactor * 1e9));
  for (const int l : path.links) {
    linkBusy_[static_cast<std::size_t>(l)] = t0 + occ;
  }
  if (obs::Tracer* tr = engine_.tracer()) {
    obs::Tracer* tl = engine_.timeline();
    obs::Metrics& m = tr->metrics();
    MetricIds& ids = metricIds();
    for (const int l : path.links) {
      if (tl != nullptr) traceLinkSpan(*tl, l, t0, t0 + occ, bytes);
      MetricIds::Link& li = ids.links[static_cast<std::size_t>(l)];
      addLinkMetric(m, li.bytes, l, ".bytes", bytes);
      addLinkMetric(m, li.busySec, l, ".busy_sec", occ.toSeconds());
    }
  }
  return t0 + path.latency + occ;
}

void Fabric::deliverLeg(int srcEp, int dstEp, double bytes,
                        sim::EventFn onArrive) {
  const Path& p = route(srcEp, dstEp);
  if (p.bridgeNode >= 0) {
    const int bridgeNode = p.bridgeNode;
    nextBridge_ = (nextBridge_ + 1) % bridgeNodes_.size();
    ++stats_.bridgeHops;
    if (obs::Tracer* tr = engine_.tracer()) {
      obs::Metrics& m = tr->metrics();
      m.add(m.counter(metricIds().bridgeHops, "fabric.bridge_hops"));
    }
    deliverViaBridge(bridgeNode, srcEp, dstEp, bytes, std::move(onArrive));
    return;
  }
  double bwFactor = 1.0;
  if (faultPlan_ != nullptr) {
    const SimTime t = engine_.now();
    const int epLinks = 2 * machine_.endpointCount();
    for (const int l : p.links) {
      const double f = linkFaultFactor(l, t);
      if (f == 0.0) {
        // A down trunk can be detoured over a gen-1 bridge node; a down
        // endpoint link leaves that endpoint unreachable, so the message
        // is lost in flight (the reliable transport's retransmit recovers
        // it once the link is back up).
        if (l >= epLinks && !bridgeNodes_.empty()) {
          const int bridge = bridgeNodes_[nextBridge_ % bridgeNodes_.size()];
          nextBridge_ = (nextBridge_ + 1) % bridgeNodes_.size();
          ++stats_.reroutes;
          ++stats_.bridgeHops;
          if (obs::Tracer* tr = engine_.tracer()) {
            obs::Metrics& m = tr->metrics();
            MetricIds& ids = metricIds();
            m.add(m.counter(ids.reroutes, "fabric.reroutes"));
            m.add(m.counter(ids.bridgeHops, "fabric.bridge_hops"));
          }
          deliverViaBridge(bridge, srcEp, dstEp, bytes, std::move(onArrive));
          return;
        }
        dropMessage(DropReason::LinkDown, l);
        return;
      }
      // Approximation: the most-degraded link's factor scales the whole
      // path's bottleneck rate (exact only when the degraded link is the
      // bottleneck, which it is in every practical plan).
      bwFactor = std::min(bwFactor, f);
    }
  }
  if (options_.model == CongestionModel::Flow) {
    flowStart(p, bytes, bwFactor, std::move(onArrive));
    return;
  }
  const SimTime arrival = occupy(p, bytes, bwFactor);
  engine_.scheduleAt(arrival, std::move(onArrive));
}

void Fabric::deliverViaBridge(int bridgeNode, int srcEp, int dstEp,
                              double bytes, sim::EventFn onArrive) {
  const int bridgeEp = machine_.endpointOfNode(bridgeNode);
  const hw::Node& bridge = machine_.node(bridgeNode);
  // Store-and-forward: receive fully, CPU forwards (software + memcpy),
  // then inject onto the second network.
  const SimTime fwd = bridge.mpiSwOverhead +
                      SimTime::seconds(bytes / (bridge.cpu.memBwGBs * 1e9));
  deliverLeg(srcEp, bridgeEp, bytes,
             [this, bridgeEp, dstEp, bytes, fwd,
              onArrive = std::move(onArrive)]() mutable {
               engine_.schedule(fwd, [this, bridgeEp, dstEp, bytes,
                                      onArrive = std::move(onArrive)]() mutable {
                 deliverLeg(bridgeEp, dstEp, bytes, std::move(onArrive));
               });
             });
}

// ---- Flow-level congestion model --------------------------------------------

std::vector<std::uint64_t> Fabric::flowsOnLinks(
    const std::vector<int>& links) const {
  std::vector<std::uint64_t> ids;
  for (const int l : links) {
    const auto& on = linkFlows_[static_cast<std::size_t>(l)];
    ids.insert(ids.end(), on.begin(), on.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

double Fabric::flowFairRateBps(const Flow& f) const {
  double rate = 1e30;
  for (const int l : f.links) {
    const double cap = linkBwGBs_[static_cast<std::size_t>(l)] *
                       linkEff_[static_cast<std::size_t>(l)] * 1e9;
    const auto n = linkFlows_[static_cast<std::size_t>(l)].size();
    rate = std::min(rate, cap / static_cast<double>(n));
  }
  return rate * f.bwFactor;
}

void Fabric::flowsReshare(std::vector<std::uint64_t> ids) {
  const SimTime now = engine_.now();
  for (const std::uint64_t id : ids) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) continue;
    Flow& f = it->second;
    const double elapsed = (now - f.lastUpdate).toSeconds();
    f.bytesLeft = std::max(0.0, f.bytesLeft - f.rateBps * elapsed);
    f.lastUpdate = now;
    f.rateBps = flowFairRateBps(f);
    const std::uint64_t gen = ++f.gen;  // supersedes the old completion event
    // The event fires when the last byte leaves the source (transmission
    // end): links free and survivors reshare immediately; the fixed path
    // latency is added on top when flowComplete delivers the arrival.
    engine_.schedule(SimTime::seconds(f.bytesLeft / f.rateBps),
                     [this, id, gen] { flowComplete(id, gen); });
  }
}

void Fabric::flowStart(const Path& path, double bytes, double bwFactor,
                       sim::EventFn onArrive) {
  const std::uint64_t id = nextFlowId_++;
  Flow f;
  f.dstEp = path.links.back() / 2;
  f.bytesLeft = f.bytesTotal = bytes;
  f.bwFactor = bwFactor;
  f.lastUpdate = f.start = engine_.now();
  f.latency = path.latency;
  f.links = path.links;
  f.onArrive = std::move(onArrive);
  for (const int l : f.links) {
    linkFlows_[static_cast<std::size_t>(l)].push_back(id);
  }
  if (obs::Tracer* tr = engine_.tracer()) {
    obs::Metrics& m = tr->metrics();
    MetricIds& ids = metricIds();
    for (const int l : f.links) {
      addLinkMetric(m, ids.links[static_cast<std::size_t>(l)].bytes, l,
                    ".bytes", bytes);
    }
  }
  const std::vector<int> links = f.links;
  flows_.emplace(id, std::move(f));
  // The new flow squeezes everything it shares a link with (itself
  // included); rates settle and completion events reschedule.
  flowsReshare(flowsOnLinks(links));
}

void Fabric::flowComplete(std::uint64_t id, std::uint64_t gen) {
  const auto it = flows_.find(id);
  if (it == flows_.end() || it->second.gen != gen) return;  // superseded
  Flow& f = it->second;
  const SimTime now = engine_.now();
  const double elapsed = (now - f.lastUpdate).toSeconds();
  f.bytesLeft = std::max(0.0, f.bytesLeft - f.rateBps * elapsed);
  f.lastUpdate = now;
  if (f.bytesLeft > 0.5) {
    // Floating-point remainder left over after a rate change; drain it.
    const std::uint64_t g = ++f.gen;
    engine_.schedule(SimTime::seconds(f.bytesLeft / f.rateBps),
                     [this, id, g] { flowComplete(id, g); });
    return;
  }
  if (obs::Tracer* tr = engine_.tracer()) {
    obs::Tracer* tl = engine_.timeline();
    obs::Metrics& m = tr->metrics();
    MetricIds& ids = metricIds();
    for (const int l : f.links) {
      if (tl != nullptr) traceLinkSpan(*tl, l, f.start, now, f.bytesTotal);
      addLinkMetric(m, ids.links[static_cast<std::size_t>(l)].busySec, l,
                    ".busy_sec", (now - f.start).toSeconds());
    }
  }
  for (const int l : f.links) {
    auto& on = linkFlows_[static_cast<std::size_t>(l)];
    on.erase(std::find(on.begin(), on.end(), id));
  }
  const std::vector<int> links = std::move(f.links);
  const SimTime latency = f.latency;
  sim::EventFn cb = std::move(f.onArrive);
  flows_.erase(it);
  flowsReshare(flowsOnLinks(links));  // survivors speed back up immediately
  // Transmission just ended; the last byte still has to propagate.
  engine_.schedule(latency, std::move(cb));
}

// ---- Fault handling ---------------------------------------------------------

double Fabric::linkFaultFactor(int link, sim::SimTime t) const {
  if (faultPlan_ == nullptr) return 1.0;
  const int epLinks = 2 * machine_.endpointCount();
  if (link < epLinks) {
    // Endpoint links inherit the attached switch's windows (a switch outage
    // cuts every port) and, for NAM endpoints, the NAM device's own windows.
    const int ep = link / 2;
    double f = faultPlan_->factor(fault::Kind::Endpoint, ep, t);
    if (f == 0.0) return 0.0;
    f *= faultPlan_->factor(fault::Kind::Switch,
                            machine_.endpointSwitch(ep), t);
    if (f == 0.0) return 0.0;
    if (ep >= machine_.nodeCount()) {
      f *= faultPlan_->factor(fault::Kind::Nam, ep - machine_.nodeCount(), t);
    }
    return f;
  }
  // A trunk terminates at two switches; either one being degraded/down
  // degrades/cuts the trunk.
  const int trunk = (link - epLinks) / 2;
  double f = faultPlan_->factor(fault::Kind::Trunk, trunk, t);
  if (f == 0.0) return 0.0;
  const auto& spec = machine_.config().trunks[static_cast<std::size_t>(trunk)];
  f *= faultPlan_->factor(fault::Kind::Switch, spec.switchA, t);
  if (f == 0.0) return 0.0;
  f *= faultPlan_->factor(fault::Kind::Switch, spec.switchB, t);
  return f;
}

void Fabric::dropMessage(DropReason reason, int link) {
  static constexpr const char* kReasonKeys[] = {"fabric.drops.random",
                                                "fabric.drops.link_down"};
  ++stats_.drops;
  if (obs::Tracer* tr = engine_.tracer()) {
    obs::Metrics& m = tr->metrics();
    MetricIds& ids = metricIds();
    const auto r = static_cast<std::size_t>(reason);
    m.add(m.counter(ids.drops, "fabric.drops"));
    m.add(m.counter(ids.dropsBy[r], kReasonKeys[r]));
  }
  if (obs::Tracer* tl = engine_.timeline()) {
    const int row = linkRow(*tl, link);
    tl->instant(static_cast<obs::Group>(
                    linkRowGroups_[static_cast<std::size_t>(link)]),
                row, "fault.drop", "fault", engine_.now(), {});
  }
}

void Fabric::sendReliable(int srcEp, int dstEp, double bytes,
                          sim::EventFn onArrive) {
  if (faultPlan_ == nullptr || !faultPlan_->active() || srcEp == dstEp) {
    send(srcEp, dstEp, bytes, std::move(onArrive));
    return;
  }
  // Hardware retry loop: resend on timeout until one attempt lands.  A
  // slow-but-delivered attempt can race its own retransmit, so arrival is
  // latched and duplicates are discarded at the "NIC".  The attempt
  // closure holds itself alive through the timeout chain; the latch clears
  // it on arrival to break the cycle.
  struct Rc {
    bool arrived = false;
  };
  auto st = std::make_shared<Rc>();
  auto cb = std::make_shared<sim::EventFn>(std::move(onArrive));
  auto attempt = std::make_shared<std::function<void(SimTime)>>();
  const SimTime base =
      (pathLatency(srcEp, dstEp) +
       SimTime::seconds(bytes / (bottleneckBwGBs(srcEp, dstEp) * 1e9))) *
          4 +
      SimTime::us(50);
  *attempt = [this, srcEp, dstEp, bytes, st, cb, attempt](SimTime rto) {
    send(srcEp, dstEp, bytes, [st, cb, attempt] {
      if (st->arrived) return;
      st->arrived = true;
      *attempt = {};  // break the self-reference cycle
      (*cb)();
    });
    engine_.schedule(rto, [this, st, attempt, rto] {
      if (st->arrived) return;
      noteRetransmit();
      (*attempt)(std::min(rto * 2, std::max(SimTime::ms(20), rto)));
    });
  };
  (*attempt)(base);
}

void Fabric::noteRetransmit() {
  ++stats_.retransmits;
  if (obs::Tracer* tr = engine_.tracer()) {
    obs::Metrics& m = tr->metrics();
    m.add(m.counter(metricIds().retransmits, "fabric.retransmits"));
  }
}

void Fabric::send(int srcEp, int dstEp, double bytes,
                  sim::EventFn onArrive) {
  ++stats_.messages;
  stats_.bytes += bytes;
  if (obs::Tracer* tr = engine_.tracer()) {
    obs::Metrics& m = tr->metrics();
    MetricIds& ids = metricIds();
    m.add(m.counter(ids.messages, "fabric.messages"));
    m.add(m.counter(ids.bytes, "fabric.bytes"), bytes);
  }
  if (srcEp == dstEp) {
    // Loopback: shared-memory (or device-internal) copy, never touches the
    // NIC; rate comes from the endpoint's own configuration.  Loopback is
    // exempt from the fault plan — a memory copy cannot be lost in flight.
    const double bw = loopbackBwGBs(srcEp) * 1e9;
    engine_.schedule(SimTime::ns(100) + SimTime::seconds(bytes / bw),
                     std::move(onArrive));
    return;
  }
  if (faultPlan_ != nullptr) {
    // Per-message decisions draw from the engine's dedicated fault stream
    // so the decision sequence is part of the deterministic event order
    // (identical across --jobs values and process backends) AND isolated
    // from app/transport draws — shifting a chaos schedule cannot realign
    // what any other subsystem samples.
    if (faultPlan_->dropProb > 0.0 &&
        engine_.faultRng().uniform() < faultPlan_->dropProb) {
      dropMessage(DropReason::Random, upLink(srcEp));
      return;
    }
    if (faultPlan_->corruptProb > 0.0 &&
        engine_.faultRng().uniform() < faultPlan_->corruptProb) {
      // The payload still travels (and occupies the path) but the
      // receiving NIC discards it on CRC failure — deliver the discard
      // instead of the message.
      onArrive = [this, dstEp] {
        ++stats_.corrupts;
        if (obs::Tracer* tr = engine_.tracer()) {
          obs::Metrics& m = tr->metrics();
          m.add(m.counter(metricIds().corrupts, "fabric.corrupts"));
        }
        if (obs::Tracer* tl = engine_.timeline()) {
          const int link = downLink(dstEp);
          const int row = linkRow(*tl, link);  // registers the row first
          tl->instant(static_cast<obs::Group>(
                          linkRowGroups_[static_cast<std::size_t>(link)]),
                      row, "fault.corrupt", "fault", engine_.now(), {});
        }
      };
    }
  }
  deliverLeg(srcEp, dstEp, bytes, std::move(onArrive));
}

double Fabric::loopbackBwGBs(int ep) const {
  if (ep < machine_.nodeCount()) return machine_.node(ep).cpu.memBwGBs;
  return machine_.nam(ep - machine_.nodeCount()).spec().bandwidthGBs;
}

SimTime Fabric::pathLatency(int srcEp, int dstEp) const {
  if (srcEp == dstEp) return SimTime::ns(100);
  const Path& p = route(srcEp, dstEp);
  if (p.bridgeNode >= 0) {
    const int bridgeNode = p.bridgeNode;  // copy before recursing (cache moves)
    const int bridgeEp = machine_.endpointOfNode(bridgeNode);
    return pathLatency(srcEp, bridgeEp) +
           machine_.node(bridgeNode).mpiSwOverhead +
           pathLatency(bridgeEp, dstEp);
  }
  return p.latency;
}

double Fabric::bottleneckBwGBs(int srcEp, int dstEp) const {
  if (srcEp == dstEp) return loopbackBwGBs(srcEp);
  const Path& p = route(srcEp, dstEp);
  if (p.bridgeNode >= 0) {
    const int bridgeNode = p.bridgeNode;  // copy before recursing (cache moves)
    const int bridgeEp = machine_.endpointOfNode(bridgeNode);
    const double legs = std::min(bottleneckBwGBs(srcEp, bridgeEp),
                                 bottleneckBwGBs(bridgeEp, dstEp));
    // Sequential store-and-forward halves the effective streaming rate.
    return legs / 2.0;
  }
  return p.bwGBs;
}

std::string Fabric::linkName(int link) const {
  const int eps = machine_.endpointCount();
  if (link < 2 * eps) {
    const int ep = link / 2;
    const char* dir = (link % 2 == 0) ? " up" : " down";
    if (ep < machine_.nodeCount()) return machine_.node(ep).name + dir;
    return "nam" + std::to_string(ep - machine_.nodeCount()) + dir;
  }
  const int t = (link - 2 * eps) / 2;
  const char* dir = ((link - 2 * eps) % 2 == 0) ? " a>b" : " b>a";
  return "trunk" + std::to_string(t) + dir;
}

int Fabric::linkRow(obs::Tracer& tr, int link) {
  if (linkRows_.empty()) {
    linkRows_.assign(linkBusy_.size(), -1);
    linkRowGroups_.assign(linkBusy_.size(), obs::kGroupLinks);
  }
  int& row = linkRows_[static_cast<std::size_t>(link)];
  if (row < 0) {
    // NAM endpoints are devices in their own right; give their links the
    // device group so the timeline shows ranks / links / devices distinctly.
    const bool isNam = link < 2 * machine_.endpointCount() &&
                       link / 2 >= machine_.nodeCount();
    const obs::Group g = isNam ? obs::kGroupDevices : obs::kGroupLinks;
    linkRowGroups_[static_cast<std::size_t>(link)] = g;
    row = tr.row(g, linkName(link));
  }
  return row;
}

void Fabric::traceLinkSpan(obs::Tracer& tr, int link, sim::SimTime t0,
                           sim::SimTime end, double bytes) {
  const int row = linkRow(tr, link);
  tr.span(static_cast<obs::Group>(
              linkRowGroups_[static_cast<std::size_t>(link)]),
          row, "xfer", "extoll", t0, end, {{"bytes", bytes}});
}

Fabric::MetricIds& Fabric::metricIds() {
  const std::uint64_t generation = engine_.tracerGeneration();
  if (metricIds_.generation != generation) {
    metricIds_ = {};
    metricIds_.generation = generation;
    metricIds_.links.resize(linkBusy_.size());
  }
  return metricIds_;
}

void Fabric::addLinkMetric(obs::Metrics& m, obs::Metrics::Id& slot, int link,
                           const char* suffix, double delta) {
  if (!slot.valid()) [[unlikely]] slot = internLinkMetric(m, link, suffix);
  m.add(slot, delta);
}

obs::Metrics::Id Fabric::internLinkMetric(obs::Metrics& m, int link,
                                          const char* suffix) const {
  return m.counter("fabric.link[" + linkName(link) + "]" + suffix);
}

}  // namespace cbsim::extoll
