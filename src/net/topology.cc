#include "net/topology.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "check/check.h"

namespace gnnpart {
namespace net {

const char* TopologyName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFullBisection:
      return "full-bisection";
    case TopologyKind::kFatTree:
      return "fat-tree";
    case TopologyKind::kRing:
      return "ring";
  }
  return "?";
}

Result<TopologyKind> ParseTopologyName(const std::string& name) {
  if (name == "full-bisection") return TopologyKind::kFullBisection;
  if (name == "fat-tree") return TopologyKind::kFatTree;
  if (name == "ring") return TopologyKind::kRing;
  return Status::InvalidArgument(
      "unknown topology '" + name +
      "' (expected full-bisection, fat-tree or ring)");
}

NetworkConfig NetworkConfig::FromCluster(const ClusterSpec& cluster) {
  NetworkConfig config;
  config.topology = TopologyKind::kFullBisection;
  config.oversubscription = 1.0;
  config.nic_bandwidth = cluster.network_bandwidth;
  config.link_latency = cluster.network_latency;
  return config;
}

std::string NetworkConfig::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "topology=%s oversubscription=%g rack-size=%d nic=%g Gbps "
                "latency=%g us",
                TopologyName(topology), oversubscription, rack_size,
                nic_bandwidth / 125e6, link_latency * 1e6);
  return buf;
}

Fabric::Fabric(const NetworkConfig& config, int hosts)
    : config_(config), hosts_(hosts) {
  GNNPART_CHECK_CHEAP(hosts > 0, "fabric needs at least one host");
  GNNPART_CHECK_CHEAP(config.nic_bandwidth > 0 && config.oversubscription > 0,
                      "fabric capacities must be positive");
  GNNPART_CHECK_CHEAP(config.rack_size > 0, "fabric rack size must be > 0");
  routes_.resize(static_cast<size_t>(hosts));
  weights_.assign(static_cast<size_t>(hosts), 0);
  const double nic = config.nic_bandwidth;

  // A one-host cluster has no peers; model a single idle NIC regardless of
  // the requested topology so phase expansion always has a route.
  const bool ring = config.topology == TopologyKind::kRing && hosts > 1;

  if (!ring) {
    // Full-bisection and fat-tree: one egress NIC per host, links [0, H).
    for (int h = 0; h < hosts; ++h) {
      links_.push_back({"nic" + std::to_string(h), nic});
    }
  }

  switch (config.topology) {
    case TopologyKind::kFullBisection:
    default: {
      // Non-blocking switch: each host's aggregate traffic rides its own
      // NIC and nothing else — flows of different hosts never contend, so
      // the engine's uncontended fast path reproduces the α-β closed form.
      for (int h = 0; h < hosts; ++h) {
        routes_[static_cast<size_t>(h)].push_back({1, {h}});
        weights_[static_cast<size_t>(h)] = 1;
      }
      break;
    }
    case TopologyKind::kFatTree: {
      if (hosts == 1) {
        routes_[0].push_back({1, {0}});
        weights_[0] = 1;
        break;
      }
      // Racks of `rack_size` hosts behind one shared uplink of capacity
      // rack_size * nic / oversubscription. Destinations are uniform over
      // the other hosts, so a host splits its bytes into an intra-rack
      // share (NIC only) and an inter-rack share (NIC + rack uplink), in
      // proportion to the actual rack occupancies.
      const int racks = (hosts + config.rack_size - 1) / config.rack_size;
      const double uplink =
          config.rack_size * nic / config.oversubscription;
      for (int r = 0; r < racks; ++r) {
        links_.push_back({"uplink" + std::to_string(r), uplink});
      }
      for (int h = 0; h < hosts; ++h) {
        const int rack = h / config.rack_size;
        const int occupancy =
            std::min(config.rack_size, hosts - rack * config.rack_size);
        const uint32_t peers = static_cast<uint32_t>(occupancy - 1);
        const uint32_t remote = static_cast<uint32_t>(hosts - occupancy);
        auto& routes = routes_[static_cast<size_t>(h)];
        if (peers > 0) routes.push_back({peers, {h}});
        if (remote > 0) routes.push_back({remote, {h, hosts + rack}});
        weights_[static_cast<size_t>(h)] = peers + remote;
      }
      break;
    }
    case TopologyKind::kRing: {
      if (hosts == 1) {
        routes_[0].push_back({1, {0}});
        weights_[0] = 1;
        break;
      }
      // Bidirectional ring: directed segment links cw<h> (h -> h+1) at
      // [0, H) and ccw<h> (h -> h-1) at [H, 2H), each at NIC capacity.
      // Destinations are uniform over the other hosts; each destination's
      // share takes the shortest direction (clockwise on distance ties),
      // crossing every segment along the way. Through-traffic therefore
      // contends with the intermediate hosts' own flows — the ring's
      // bisection penalty.
      for (int h = 0; h < hosts; ++h) {
        links_.push_back({"cw" + std::to_string(h), nic});
      }
      for (int h = 0; h < hosts; ++h) {
        links_.push_back({"ccw" + std::to_string(h), nic});
      }
      for (int h = 0; h < hosts; ++h) {
        auto& routes = routes_[static_cast<size_t>(h)];
        for (int off = 1; off < hosts; ++off) {
          const int cw_hops = off;
          const int ccw_hops = hosts - off;
          Route route;
          route.weight = 1;
          route.dst = (h + off) % hosts;
          if (cw_hops <= ccw_hops) {
            for (int j = 0; j < cw_hops; ++j) {
              route.links.push_back((h + j) % hosts);
            }
          } else {
            for (int j = 0; j < ccw_hops; ++j) {
              route.links.push_back(hosts + ((h - j + hosts) % hosts));
            }
          }
          routes.push_back(std::move(route));
        }
        weights_[static_cast<size_t>(h)] = static_cast<uint32_t>(hosts - 1);
      }
      break;
    }
  }
}

}  // namespace net
}  // namespace gnnpart
