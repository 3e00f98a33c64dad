#ifndef GNNPART_NET_TOPOLOGY_H_
#define GNNPART_NET_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/cluster.h"

namespace gnnpart {
namespace net {

/// gnnpart::net — topology-aware network model for the epoch simulators
/// (DESIGN.md §10).
///
/// The fabric is described at flow granularity: each host's aggregate
/// per-phase egress traffic is expanded into one flow per *route* (a
/// sequence of capacity-bearing links), and the discrete-event engine in
/// flowsim.h charges every flow an α-β cost (latency rounds + bytes over
/// its max-min fair-share bandwidth). Like everything else in the library,
/// the model runs in simulated time only — no wall clocks — and its outputs
/// are pure functions of (workload, config), bit-identical for every
/// thread count.

/// The three parameterized fabrics of the study's overlap experiments.
/// kFullBisection is the legacy cost model's implicit topology: every host
/// owns an uncontended NIC into a non-blocking switch, so a host's flows
/// never share a link with another host's and the α-β closed form is exact.
enum class TopologyKind : uint8_t {
  kFullBisection = 0,
  kFatTree,  // racks of `rack_size` hosts, shared oversubscribed uplinks
  kRing,     // hosts on a bidirectional ring, shortest-path routing
};

/// Stable lower-case CLI name: "full-bisection", "fat-tree", "ring".
const char* TopologyName(TopologyKind kind);

/// Parses a CLI topology name; InvalidArgument on anything else.
Result<TopologyKind> ParseTopologyName(const std::string& name);

/// Everything that parameterizes the fabric.
/// Defaults are FromCluster(ClusterSpec{}): the legacy cost model's fabric,
/// under which the simulators reproduce their pre-net reports bit-exactly.
struct NetworkConfig {
  TopologyKind topology = TopologyKind::kFullBisection;
  /// Fat-tree uplink capacity divisor (1 = non-blocking, 4 = 4:1).
  double oversubscription = 1.0;
  /// Hosts per fat-tree rack (leaf switch).
  int rack_size = 4;
  /// Per-host NIC egress bandwidth (bytes/s).
  double nic_bandwidth = 125e6;
  /// Per-message/RPC latency charged per round (seconds).
  double link_latency = 100e-6;

  /// The fabric the legacy closed-form model priced implicitly: a
  /// full-bisection switch with the cluster's point-to-point bandwidth
  /// and latency on every NIC.
  static NetworkConfig FromCluster(const ClusterSpec& cluster);

  /// Human-readable one-liner for reports.
  std::string Summary() const;
};

/// One capacity-bearing resource of the fabric. Flows crossing the same
/// link contend for its capacity under max-min fair sharing.
struct Link {
  std::string name;     // stable: "nic3", "uplink1", "cw2", "ccw0"
  double capacity = 0;  // bytes/s
};

/// One egress route of a host's aggregate phase traffic: `weight` parts
/// (out of the sum over the host's routes) of the host's bytes traverse
/// `links` in order. Integer weights keep the byte split reproducible and
/// let single-route hosts carry their bytes unsplit (bit-exactness).
struct Route {
  uint32_t weight = 1;
  std::vector<int> links;  // indices into Fabric::links()
  /// Destination host when the route serves exactly one (the ring's
  /// per-offset routes); -1 for aggregate routes whose bytes fan out to
  /// several destinations (full-bisection NIC, fat-tree rack shares).
  int dst = -1;
};

/// An immutable, fully-expanded fabric for `hosts` machines. Construction
/// is deterministic: link order and route order depend only on (config,
/// hosts).
class Fabric {
 public:
  Fabric(const NetworkConfig& config, int hosts);

  const NetworkConfig& config() const { return config_; }
  int num_hosts() const { return hosts_; }
  const std::vector<Link>& links() const { return links_; }
  /// The routes host `host`'s egress traffic is split over (never empty).
  const std::vector<Route>& HostRoutes(int host) const {
    return routes_[static_cast<size_t>(host)];
  }
  /// Sum of route weights for `host` (the byte-split denominator).
  uint32_t HostWeight(int host) const {
    return weights_[static_cast<size_t>(host)];
  }

 private:
  NetworkConfig config_;
  int hosts_ = 0;
  std::vector<Link> links_;
  std::vector<std::vector<Route>> routes_;  // per host
  std::vector<uint32_t> weights_;           // per host
};

}  // namespace net
}  // namespace gnnpart

#endif  // GNNPART_NET_TOPOLOGY_H_
