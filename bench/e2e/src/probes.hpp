#pragma once

// Isolated probes: each one drives a single layer's public functions in a
// loop, away from any campaign, so a per-layer cost can be read without the
// rest of a world around it.  Every probe returns the median of a few
// repeats.

#include <string>
#include <utility>
#include <vector>

#include "hw/machine.hpp"

namespace cbsim::e2e {

/// sim: ns per event of a bare self-rescheduling event chain.
[[nodiscard]] double eventNs();
/// sim: ns per process switch in a two-process wake/suspend ping-pong.
[[nodiscard]] double switchNs();

struct RouteNs {
  double cold = 0;  ///< first query of each pair (the path is computed)
  double warm = 0;  ///< repeat query (served from the route cache)
};
/// extoll: Fabric::pathLatency over the 2D halo neighbour pairs of every
/// Cluster node of `machine`.
[[nodiscard]] RouteNs routeNs(const hw::MachineConfig& machine);
/// extoll: ns per Fabric::send of `bytes`, issued from plain engine events
/// over the same neighbour pairs (arrival events included).
[[nodiscard]] double sendNs(const hw::MachineConfig& machine, double bytes);

/// obs: ns per Metrics::add / gaugeAdd over a registry holding `keys`
/// (name, is-gauge), replayed in a fixed shuffled order.
[[nodiscard]] double metricsAddNs(
    const std::vector<std::pair<std::string, bool>>& keys);

/// pmpi: ns per message of a two-rank Env ping-pong of `bytes`; `reliable`
/// runs the ack/retransmit transport over the resilience workload's lossy
/// fabric.
[[nodiscard]] double pingPongNs(std::size_t bytes, int roundTrips,
                                bool reliable);

/// xpic: host seconds in each public solver call of a one-rank Table II
/// world, summed over its 50 steps.
struct XpicKernelSeconds {
  double calculateE = 0;
  double particlesMove = 0;
  double migrate = 0;
  double particleMoments = 0;
  double calculateB = 0;
};
[[nodiscard]] XpicKernelSeconds xpicKernels();

}  // namespace cbsim::e2e
