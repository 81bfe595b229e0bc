#pragma once

// Fabric model (EXTOLL Tourmalet on the DEEP-ER prototype; InfiniBand +
// EXTOLL with bridge nodes on the gen-1 DEEP prototype; generated
// fat-tree / dragonfly fabrics for scale-out sweeps).
//
// The default model is message-granular: a transfer occupies every link on
// its path for bytes / (link bandwidth * protocol efficiency) (cut-through,
// so the serialization time is paid once end-to-end), and experiences a
// fixed per-element latency (NIC, wire, switch, trunk).  Links are
// serialized via busy-until clocks, so concurrent traffic sees queueing —
// this is where collective algorithms and the C+B interface exchange get
// their contention behaviour from.
//
// Routing.  Two interchangeable routers compute the same paths:
//   * Enumerated (the reference): breadth-first shortest-path search over
//     the switch graph, all equal-cost candidates collected in
//     lexicographic trunk-index order.  Every paper machine and every
//     generated dragonfly routes here.
//   * Structural: for generated fat-trees, the leaf -> spine -> leaf
//     path comes from pod/spine coordinate arithmetic in O(1) — no graph
//     search, no per-switch state.  Because the generator emits trunks
//     in exactly the order the reference's enumeration visits them
//     (hw/topology.hpp), the two routers are byte-identical; a property
//     test pins this.  On any other machine Structural defers to the
//     reference.
// Equal-cost candidates are tie-broken deterministically by
// (srcEp + dstEp) % count, which the structural router computes without
// enumerating anything at runtime.  Either way the chosen path is
// memoized in a per-(src,dst) cache — the topology is static after
// construction, so route() is pure (bridged gen-1 paths, whose bridge
// pick rotates, bypass the cache).
//
// Congestion models.  Next to the packet/occupancy model above, an
// optional flow-level model (CongestionModel::Flow) shares each link's
// capacity equally among the flows crossing it (a link-fair max-min
// approximation in the SimGrid flow-model tradition): a transfer becomes
// a flow whose rate is min over its links of capacity / active-flow
// count, re-evaluated whenever a flow starts or finishes on a shared
// link.  Huge sweeps trade per-packet queueing fidelity for a tiny
// event count per message.
//
// Endpoint numbering follows hw::Machine: [0, nodeCount) node NICs, then
// NAM devices.  Gen-1 bridge nodes are dual-homed: their NIC is considered
// attached to whichever network their peer lives on, and Cluster<->Booster
// messages store-and-forward through a bridge node's CPU.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "sim/engine.hpp"

namespace cbsim::extoll {

/// Path computation strategy; Auto resolves to Structural for generated
/// fat-trees and Enumerated otherwise.
enum class RoutingMode { Auto, Enumerated, Structural };

/// Packet = per-message link occupancy (busy-until clocks, the paper
/// model); Flow = link-fair max-min bandwidth sharing for huge sweeps.
enum class CongestionModel { Packet, Flow };

struct FabricOptions {
  RoutingMode routing = RoutingMode::Auto;
  CongestionModel model = CongestionModel::Packet;
};

class Fabric {
 public:
  struct Stats {
    std::uint64_t messages = 0;
    double bytes = 0.0;
    std::uint64_t bridgeHops = 0;
    std::uint64_t drops = 0;        ///< lost in flight: random loss + down links
    std::uint64_t corrupts = 0;     ///< arrived but failed CRC, discarded at NIC
    std::uint64_t retransmits = 0;  ///< resends noted by the reliable transport
    std::uint64_t reroutes = 0;     ///< trunk-down messages detoured via a bridge
  };

  explicit Fabric(hw::Machine& machine, FabricOptions options = {});

  /// Injects a transfer of `bytes` from endpoint `srcEp` to `dstEp`.
  /// `onArrive` runs (as an engine event) when the last byte lands at the
  /// destination NIC.  Endpoint software costs (MPI stack) are NOT charged
  /// here — that is the pmpi layer's job; RDMA targets like the NAM have
  /// none, which is exactly the paper's point about the NAM.
  void send(int srcEp, int dstEp, double bytes, sim::EventFn onArrive);

  /// Zero-byte end-to-end latency of the path (no queueing).  Pure query:
  /// never perturbs link state or the gen-1 bridge round-robin.
  [[nodiscard]] sim::SimTime pathLatency(int srcEp, int dstEp) const;

  /// Effective (protocol-derated) bottleneck bandwidth of the path in GB/s.
  /// Pure query, like pathLatency().
  [[nodiscard]] double bottleneckBwGBs(int srcEp, int dstEp) const;

  /// Attaches a fault schedule (nullptr detaches).  The plan is consulted
  /// on every non-loopback send: per-message drop/corrupt decisions draw
  /// from the engine RNG, degradation windows stretch occupancy, and down
  /// links drop traffic (or detour it over a gen-1 bridge when the machine
  /// has one).  The plan is borrowed — the caller keeps it alive for as
  /// long as it is attached.
  void setFaultPlan(const fault::FaultPlan* plan) { faultPlan_ = plan; }
  [[nodiscard]] const fault::FaultPlan* faultPlan() const { return faultPlan_; }

  /// Reliable-connection send (EXTOLL RC semantics, used by the io/ RDMA
  /// paths): like send(), but a message the fault plan loses is resent on
  /// a deterministic timeout with capped exponential backoff, and
  /// `onArrive` fires exactly once.  Without an active fault plan this is
  /// plain send().  The pmpi layer does NOT use this — it runs its own
  /// end-to-end ack/retransmit protocol with an error budget.
  void sendReliable(int srcEp, int dstEp, double bytes,
                    sim::EventFn onArrive);

  /// Reliable-transport hook (pmpi): counts a resend caused by loss on
  /// this fabric, so drop and recovery totals live side by side in Stats.
  void noteRetransmit();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] hw::Machine& machine() const { return machine_; }
  [[nodiscard]] const FabricOptions& options() const { return options_; }
  /// The mode Auto resolved to (never Auto).
  [[nodiscard]] RoutingMode routingMode() const { return routing_; }

  /// Introspection of one routing decision (tests, equivalence checks,
  /// benches).  Same purity contract as pathLatency().
  struct RouteInfo {
    std::vector<int> links;
    sim::SimTime latency;
    double bwGBs = 0.0;
    int bridgeNode = -1;
  };
  [[nodiscard]] RouteInfo routeInfo(int srcEp, int dstEp) const;

  /// Entries currently memoized by the per-(src,dst) path cache.
  [[nodiscard]] std::size_t routeCacheSize() const {
    return pathCache_.size();
  }
  [[nodiscard]] std::uint64_t routeCacheHits() const { return cacheHits_; }
  /// Heap bytes held by the path cache (table plus per-path link arrays).
  [[nodiscard]] std::size_t routeCacheBytes() const;

  /// Flows currently in flight (CongestionModel::Flow only).
  [[nodiscard]] std::size_t activeFlows() const { return flows_.size(); }

 private:
  struct Path {
    std::vector<int> links;   ///< indices into linkBusy_/linkBwGBs_
    sim::SimTime latency;     ///< sum of fixed element latencies
    double bwGBs;             ///< effective bottleneck bandwidth
    int bridgeNode = -1;      ///< store-and-forward bridge, or -1
  };

  /// One inter-switch step of a path: which trunk, and whether it is
  /// traversed in its emitted switch_a -> switch_b direction.
  struct Hop {
    int trunk;
    bool forward;
  };

  [[nodiscard]] int upLink(int ep) const { return 2 * ep; }
  [[nodiscard]] int downLink(int ep) const { return 2 * ep + 1; }
  [[nodiscard]] int trunkLink(int trunkIdx, bool aToB) const {
    return 2 * machine_.endpointCount() + 2 * trunkIdx + (aToB ? 0 : 1);
  }

  /// Resolves the dual-homing of bridge nodes: a bridge NIC counts as
  /// attached to its peer's network.
  [[nodiscard]] int effectiveSwitch(int ep, int peerSwitch) const;
  /// Pure routing query (memoized); a bridged path reports the bridge the
  /// round-robin would pick next without advancing it (only deliverLeg
  /// advances it, so latency/bandwidth queries cannot perturb later
  /// traffic).  Bridged paths bypass the cache for exactly that reason.
  [[nodiscard]] const Path& route(int srcEp, int dstEp) const;
  [[nodiscard]] Path computePath(int srcEp, int dstEp) const;
  /// Builds links/latency/bandwidth for src -> [hops] -> dst.
  [[nodiscard]] Path assemblePath(int srcEp, int s1, int dstEp, int s2,
                                  const std::vector<Hop>& hops) const;
  /// All equal-cost shortest trunk sequences s1 -> s2 in lexicographic
  /// trunk-index order (the enumerated reference); memoized.  Empty when
  /// the switches are disconnected.
  [[nodiscard]] const std::vector<std::vector<Hop>>& switchPaths(
      int s1, int s2) const;
  /// O(1) coordinate routing between the leaves of a generated fat-tree.
  /// Returns false on any other machine or switch pair (then the
  /// enumerated reference takes over).
  [[nodiscard]] bool structuralPath(int s1, int s2, int selector,
                                    std::vector<Hop>& hops) const;

  /// Books the path's links and returns the arrival time.  `bwFactor`
  /// scales the path's bottleneck bandwidth (fault-plan degradation,
  /// sampled once at injection time).
  sim::SimTime occupy(const Path& path, double bytes, double bwFactor = 1.0);
  void deliverLeg(int srcEp, int dstEp, double bytes, sim::EventFn onArrive);
  /// Store-and-forward hop over a gen-1 bridge node (shared by bridged
  /// routes and trunk-down detours).
  void deliverViaBridge(int bridgeNode, int srcEp, int dstEp, double bytes,
                        sim::EventFn onArrive);
  /// Fault-plan bandwidth factor of one link at time `t` (1.0 without a plan).
  [[nodiscard]] double linkFaultFactor(int link, sim::SimTime t) const;
  /// Why a message was lost in flight; each reason has its own
  /// "fabric.drops.<reason>" counter.
  enum class DropReason { Random, LinkDown };
  /// Counts a lost message (`stats_.drops`) under its reason and marks it
  /// on the link's trace row.
  void dropMessage(DropReason reason, int link);
  /// Intra-endpoint copy bandwidth in GB/s: node memory bandwidth for node
  /// endpoints, the device's streaming rate for NAM endpoints.
  [[nodiscard]] double loopbackBwGBs(int ep) const;
  /// Human-readable link label ("cn03 up", "trunk0 a>b") for traces/metrics.
  [[nodiscard]] std::string linkName(int link) const;
  /// Timeline row of `link` (registered on first use; NAM endpoint links
  /// land in the devices group).  Returns the row id.
  int linkRow(obs::Tracer& tr, int link);
  /// Emits the occupancy span of `link` onto its timeline row.
  void traceLinkSpan(obs::Tracer& tr, int link, sim::SimTime t0,
                     sim::SimTime end, double bytes);

  /// Handles of the fabric's metric keys in the attached tracer's registry.
  /// Each is interned on first touch, so a report holds exactly the keys
  /// that were updated.
  struct MetricIds {
    struct Link {
      obs::Metrics::Id bytes, busySec;
    };
    std::uint64_t generation = 0;  ///< Engine::tracerGeneration() they belong to
    obs::Metrics::Id messages, bytes, bridgeHops, reroutes, retransmits,
        corrupts, drops;
    obs::Metrics::Id dropsBy[2];  ///< indexed by DropReason
    std::vector<Link> links;      ///< indexed by link
  };
  /// The handle cache, emptied first when the engine's tracer was swapped.
  /// Only call with a tracer attached.
  MetricIds& metricIds();
  /// Adds `delta` to the "fabric.link[<name>]<suffix>" counter whose handle
  /// `slot` caches (the key string is built only on the first touch).
  void addLinkMetric(obs::Metrics& m, obs::Metrics::Id& slot, int link,
                     const char* suffix, double delta);
  /// Slow path of addLinkMetric(): builds the key and interns it.
  [[nodiscard]] obs::Metrics::Id internLinkMetric(obs::Metrics& m, int link,
                                                  const char* suffix) const;

  // ---- Flow-level congestion model ----------------------------------------
  struct Flow {
    int dstEp = -1;
    double bytesLeft = 0.0;
    double bytesTotal = 0.0;
    double rateBps = 0.0;      ///< currently allotted end-to-end rate
    double bwFactor = 1.0;     ///< fault-plan degradation, fixed at injection
    sim::SimTime lastUpdate;   ///< when bytesLeft was last settled
    sim::SimTime start;
    sim::SimTime latency;      ///< fixed path latency, added at completion
    std::uint64_t gen = 0;     ///< invalidates superseded completion events
    std::vector<int> links;
    sim::EventFn onArrive;
  };

  void flowStart(const Path& path, double bytes, double bwFactor,
                 sim::EventFn onArrive);
  void flowComplete(std::uint64_t id, std::uint64_t gen);
  /// Settles progress, recomputes the fair rate, and reschedules the
  /// completion event of every flow in `ids` (sorted, deduplicated).
  void flowsReshare(std::vector<std::uint64_t> ids);
  [[nodiscard]] double flowFairRateBps(const Flow& f) const;
  /// Active-flow ids over all of `links`, sorted and deduplicated.
  [[nodiscard]] std::vector<std::uint64_t> flowsOnLinks(
      const std::vector<int>& links) const;

  hw::Machine& machine_;
  sim::Engine& engine_;
  FabricOptions options_;
  RoutingMode routing_ = RoutingMode::Enumerated;  ///< Auto resolved
  std::vector<sim::SimTime> linkBusy_;
  std::vector<double> linkBwGBs_;      ///< raw link rate
  std::vector<double> linkEff_;        ///< protocol efficiency of the link's net
  std::vector<int> bridgeNodes_;
  std::size_t nextBridge_ = 0;         ///< round-robin bridge selection
  std::vector<int> linkRows_;          ///< lazily registered obs/ rows
  std::vector<int> linkRowGroups_;     ///< obs::Group of each link's row
  MetricIds metricIds_;
  const fault::FaultPlan* faultPlan_ = nullptr;
  Stats stats_;

  // Routing state.  The adjacency is per-switch, edges in trunk-index
  // order (built once; trunks are emitted in ascending index order).
  struct Edge {
    int trunk;
    int to;
    bool forward;
  };
  std::vector<std::vector<Edge>> switchAdj_;
  /// Route-cache entry cap (see routeCacheSize): the memo is cleared
  /// wholesale when it reaches this many entries, bounding its memory.
  static constexpr std::size_t kRouteCacheCap = std::size_t{1} << 20;
  /// Memoized routing decisions.  Mutable: route() is logically const (the
  /// topology is frozen at construction) and worlds are single-threaded.
  mutable std::unordered_map<std::uint64_t, Path> pathCache_;
  /// Holds the most recent bridged (uncacheable) route() result so route()
  /// can hand out references uniformly.
  mutable Path bridgeScratch_;
  mutable std::unordered_map<std::uint64_t, std::vector<std::vector<Hop>>>
      switchPathsCache_;
  mutable std::uint64_t cacheHits_ = 0;

  // Flow-model state.  std::map for deterministic recompute order.
  std::map<std::uint64_t, Flow> flows_;
  std::vector<std::vector<std::uint64_t>> linkFlows_;  ///< per link, flow ids
  std::uint64_t nextFlowId_ = 0;
};

}  // namespace cbsim::extoll
