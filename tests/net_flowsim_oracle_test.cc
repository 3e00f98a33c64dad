// Differential test of the component engine against the whole-set-scan
// engine (tests/flowsim_oracle.*): randomized weighted flow sets on all
// three fabrics must give bitwise-equal completion times, link usage, flow
// details and link samples, and so must same-instant retirements from two
// components, and serve-scale flow sets. Also pins the engine's work
// counters.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flowsim_oracle.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

struct FabricCase {
  std::string name;
  net::NetworkConfig config;
  int hosts;
};

std::vector<FabricCase> Fabrics() {
  std::vector<FabricCase> cases;
  net::NetworkConfig full;
  cases.push_back({"full-bisection", full, 4});
  net::NetworkConfig fat;
  fat.topology = net::TopologyKind::kFatTree;
  fat.oversubscription = 4.0;
  fat.rack_size = 2;
  cases.push_back({"fat-tree", fat, 8});
  net::NetworkConfig ring;
  ring.topology = net::TopologyKind::kRing;
  for (int hosts : {2, 3, 8, 16}) {
    cases.push_back({"ring" + std::to_string(hosts), ring, hosts});
  }
  // The serve-contended fat-tree (two racks of four), three racks of
  // uneven occupancy (4, 4, 2), and one component per host.
  fat.rack_size = 4;
  cases.push_back({"fat-tree-rack4", fat, 8});
  cases.push_back({"fat-tree10-rack4", fat, 10});
  cases.push_back({"full-bisection8", full, 8});
  return cases;
}

/// A random flow set over the fabric's routes: weights from a fixed menu
/// (unit, power of two, and two inexact ones), starts either tied on a
/// coarse grid or staggered, and about one flow in eight carrying no bytes.
std::vector<net::Flow> RandomFlows(const net::Fabric& fabric, size_t count,
                                   Rng* rng) {
  constexpr double kWeights[] = {1.0, 4.0, 0.3, 2.5};
  std::vector<net::Flow> flows;
  for (size_t i = 0; i < count; ++i) {
    net::Flow f;
    f.host = static_cast<int>(rng->NextBounded(
        static_cast<uint64_t>(fabric.num_hosts())));
    const std::vector<net::Route>& routes = fabric.HostRoutes(f.host);
    const net::Route& route = routes[rng->NextBounded(routes.size())];
    f.dst = route.dst;
    f.links = route.links;
    f.start = rng->NextBernoulli(0.5)
                  ? 1e-3 * static_cast<double>(rng->NextBounded(4))
                  : 5e-3 * rng->NextDouble();
    f.bytes = rng->NextBernoulli(0.125) ? 0.0 : 1e3 + 2e5 * rng->NextDouble();
    f.latency_rounds = static_cast<double>(rng->NextBounded(4));
    f.weight = kWeights[rng->NextBounded(4)];
    flows.push_back(std::move(f));
  }
  return flows;
}

void ExpectUsageEq(const net::LinkUsage& a, const net::LinkUsage& b) {
  EXPECT_EQ(a.link_bytes, b.link_bytes);
  EXPECT_EQ(a.link_busy_seconds, b.link_busy_seconds);
  EXPECT_EQ(a.host_egress_bytes, b.host_egress_bytes);
  EXPECT_EQ(a.host_offered_bytes, b.host_offered_bytes);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.flows, b.flows);
}

// Every field of every record, bitwise: the flow records (one per flow,
// flow order) and the link samples after them.
void ExpectLogEq(const std::vector<obs::Event>& a,
                 const std::vector<obs::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].link, b[i].link);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(a[i].t0, b[i].t0);
    EXPECT_EQ(a[i].t1, b[i].t1);
    EXPECT_EQ(a[i].t1_free, b[i].t1_free);
    EXPECT_EQ(a[i].dur, b[i].dur);
    EXPECT_EQ(a[i].comm, b[i].comm);
    EXPECT_EQ(a[i].rate, b[i].rate);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].flows, b[i].flows);
    EXPECT_EQ(a[i].hits, b[i].hits);
    EXPECT_EQ(a[i].misses, b[i].misses);
    EXPECT_EQ(a[i].links, b[i].links);
  }
}

TEST(FlowSimOracleTest, IndexedEngineMatchesWholeSetScanBitwise) {
  uint64_t seed = 1;
  for (const FabricCase& fc : Fabrics()) {
    const net::Fabric fabric(fc.config, fc.hosts);
    // One LinkUsage absorbs every run on the fabric, as an epoch's phases
    // do, so the sums must also accumulate in the oracle's order.
    net::LinkUsage usage, oracle_usage;
    for (size_t count : {1, 2, 17, 120, 400}) {
      SCOPED_TRACE(fc.name + " flows=" + std::to_string(count));
      Rng rng(seed++);
      const std::vector<net::Flow> flows = RandomFlows(fabric, count, &rng);

      const std::vector<double> plain = net::SimulateFlows(fabric, flows,
                                                           nullptr);
      EXPECT_EQ(plain, net::oracle::SimulateFlows(fabric, flows, nullptr));

      std::vector<obs::Event> log, oracle_log;
      const std::vector<double> logged =
          net::SimulateFlows(fabric, flows, &usage, &log);
      EXPECT_EQ(logged, net::oracle::SimulateFlows(fabric, flows,
                                                   &oracle_usage,
                                                   &oracle_log));
      EXPECT_EQ(logged, plain);
      ExpectUsageEq(usage, oracle_usage);
      ASSERT_GE(log.size(), flows.size());
      for (size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(log[i].kind, i < flows.size() ? obs::Event::Kind::kFlow
                                                : obs::Event::Kind::kSample);
      }
      ExpectLogEq(log, oracle_log);
    }
  }
}

/// A serve-scale flow set: `count` flows at weight 1 or 4 (co-tenant
/// training against serving, as RunServe weighs them), arriving one at a
/// time over `window` seconds from uniform random hosts and routes, each
/// with up to `max_bytes`. Offered near the fabric's capacity, the backlog
/// builds to about a thousand active flows, and slots are reused
/// throughout.
std::vector<net::Flow> StaggeredFlows(const net::Fabric& fabric, size_t count,
                                      double window, double max_bytes,
                                      Rng* rng) {
  std::vector<net::Flow> flows;
  for (size_t i = 0; i < count; ++i) {
    net::Flow f;
    f.host = static_cast<int>(rng->NextBounded(
        static_cast<uint64_t>(fabric.num_hosts())));
    const std::vector<net::Route>& routes = fabric.HostRoutes(f.host);
    const net::Route& route = routes[rng->NextBounded(routes.size())];
    f.dst = route.dst;
    f.links = route.links;
    f.start = window * rng->NextDouble();
    f.bytes = max_bytes * rng->NextDouble();
    f.latency_rounds = static_cast<double>(rng->NextBounded(4));
    f.weight = rng->NextBernoulli(0.5) ? 1.0 : 4.0;
    flows.push_back(std::move(f));
  }
  return flows;
}

/// The most flows draining at once: a flow drains from its start until its
/// completion less its latency rounds.
size_t PeakActive(const net::Fabric& fabric,
                  const std::vector<net::Flow>& flows,
                  const std::vector<double>& completion) {
  std::vector<std::pair<double, int>> edges;
  for (size_t i = 0; i < flows.size(); ++i) {
    edges.emplace_back(flows[i].start, 1);
    edges.emplace_back(completion[i] - flows[i].latency_rounds *
                                           fabric.config().link_latency,
                       -1);
  }
  std::sort(edges.begin(), edges.end());
  size_t active = 0, peak = 0;
  for (const auto& [t, delta] : edges) {
    active += static_cast<size_t>(static_cast<int64_t>(delta));
    peak = std::max(peak, active);
  }
  return peak;
}

TEST(FlowSimOracleTest, ServeScaleFlowSetsMatchBitwise) {
  // The serve-contended fabrics at the flow counts RunServe hands the
  // engine: thousands of admissions into reused slots and water-fills over
  // hundreds of members per component.
  // Bytes per fabric put the peak backlog near 1,000 flows.
  const std::pair<std::string, double> kCases[] = {{"fat-tree-rack4", 1.4e5},
                                                   {"ring8", 1.9e5}};
  for (const FabricCase& fc : Fabrics()) {
    const auto* it =
        std::find_if(std::begin(kCases), std::end(kCases),
                     [&](const auto& c) { return c.first == fc.name; });
    if (it == std::end(kCases)) continue;
    SCOPED_TRACE(fc.name);
    const net::Fabric fabric(fc.config, fc.hosts);
    Rng rng(977);
    const std::vector<net::Flow> flows =
        StaggeredFlows(fabric, 5000, 0.5, it->second, &rng);
    net::LinkUsage usage, oracle_usage;
    std::vector<obs::Event> log, oracle_log;
    const std::vector<double> finish =
        net::SimulateFlows(fabric, flows, &usage, &log);
    EXPECT_EQ(finish, net::oracle::SimulateFlows(fabric, flows, &oracle_usage,
                                                 &oracle_log));
    ExpectUsageEq(usage, oracle_usage);
    ExpectLogEq(log, oracle_log);
    const size_t peak = PeakActive(fabric, flows, finish);
    EXPECT_GE(peak, 700u);
    EXPECT_LE(peak, 1500u);
  }
}

/// The first of `host`'s routes whose links all lie in [lo, hi).
const net::Route& RouteWithin(const net::Fabric& fabric, int host, int lo,
                              int hi) {
  for (const net::Route& route : fabric.HostRoutes(host)) {
    bool inside = true;
    for (int l : route.links) inside = inside && l >= lo && l < hi;
    if (inside) return route;
  }
  ADD_FAILURE() << "no route of host " << host << " in [" << lo << ", "
                << hi << ")";
  return fabric.HostRoutes(host)[0];
}

TEST(FlowSimOracleTest, SameInstantRetirementsSumInAdmissionOrder) {
  // One ring host's clockwise and counter-clockwise flows sit in different
  // components yet feed the same host_egress_bytes sum, whose rounding
  // depends on the order. A 1-byte flow deposits 1.0 early; then a 2^53-byte
  // ccw flow (admitted first) and a 1-byte cw flow retire at the same
  // instant. Admission order sums (1 + 2^53) + 1 = 2^53; the component
  // order (cw first) would sum (1 + 1) + 2^53 = 2^53 + 2.
  net::NetworkConfig config;
  config.topology = net::TopologyKind::kRing;
  config.nic_bandwidth = 0x1p30;  // every drain time below is exact
  const int hosts = 4;
  const net::Fabric fabric(config, hosts);
  const net::Route& cw = RouteWithin(fabric, 0, 0, hosts);
  const net::Route& ccw = RouteWithin(fabric, 0, hosts, 2 * hosts);
  net::Flow early;
  early.links = cw.links;
  early.bytes = 1.0;
  net::Flow big;
  big.links = ccw.links;
  big.bytes = 0x1p53;  // drains at 2^53 / 2^30 = 2^23 s
  net::Flow late = early;
  late.start = 0x1p23 - 0x1p-30;  // drains at 2^23 s too
  const std::vector<net::Flow> flows = {early, late, big};

  net::LinkUsage usage, oracle_usage;
  std::vector<obs::Event> log, oracle_log;
  const std::vector<double> finish =
      net::SimulateFlows(fabric, flows, &usage, &log);
  EXPECT_EQ(finish, net::oracle::SimulateFlows(fabric, flows, &oracle_usage,
                                               &oracle_log));
  EXPECT_EQ(log[1].t1, log[2].t1);
  EXPECT_EQ(usage.host_egress_bytes[0], 0x1p53);
  ExpectUsageEq(usage, oracle_usage);
  ExpectLogEq(log, oracle_log);
}

uint64_t CounterValue(const std::string& name) {
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (row.name == name) return row.value;
  }
  return 0;
}

TEST(FlowSimOracleTest, WorkCountersTallyEventsAndFillRounds) {
  // Two flows on one NIC, the second arriving while the first drains:
  // event 1 admits A, event 2 admits B and ends when A drains, event 3
  // runs B alone to completion. Every fill is a single round (one link),
  // so 3 events and 3 rounds, published once per call.
  const net::Fabric fabric(net::NetworkConfig{}, 2);
  net::Flow a;
  a.links = fabric.HostRoutes(0)[0].links;
  a.bytes = 1e6;
  net::Flow b = a;
  b.start = 1e-3;
  const uint64_t events = CounterValue("net/flowsim/events");
  const uint64_t rounds = CounterValue("net/flowsim/fill_rounds");
  const uint64_t members = CounterValue("net/flowsim/fill_members");
  net::SimulateFlows(fabric, {a, b}, nullptr);
  EXPECT_EQ(CounterValue("net/flowsim/events") - events, 3u);
  EXPECT_EQ(CounterValue("net/flowsim/fill_rounds") - rounds, 3u);
  // Water-filled members: {A}, {A, B}, then {B} once A has retired.
  EXPECT_EQ(CounterValue("net/flowsim/fill_members") - members, 4u);

  // Two components (nic0, nic1). A drains on nic0 from 0 to 8 ms while B
  // (1 to 1.8 ms) and C (3 to 3.8 ms) come and go on nic1, so nic0 is
  // reused at every event after the first. A whole-fabric water-fill needs
  // one round per loaded NIC per event:
  //   0 ms admit A: 1;  1 ms admit B: 2;  1.8 ms B retired: 1;
  //   3 ms admit C: 2;  3.8 ms C retired: 1  -> 5 events, 7 rounds,
  // which the reused nic0's cached round counts must still make up.
  net::Flow c = a;
  c.links = fabric.HostRoutes(1)[0].links;
  c.bytes = 1e5;
  c.start = 1e-3;
  net::Flow d = c;
  d.start = 3e-3;
  const uint64_t events2 = CounterValue("net/flowsim/events");
  const uint64_t rounds2 = CounterValue("net/flowsim/fill_rounds");
  const uint64_t members2 = CounterValue("net/flowsim/fill_members");
  net::SimulateFlows(fabric, {a, c, d}, nullptr);
  EXPECT_EQ(CounterValue("net/flowsim/events") - events2, 5u);
  EXPECT_EQ(CounterValue("net/flowsim/fill_rounds") - rounds2, 7u);
  // Only the components an event changed are water-filled: nic0 once for
  // A; nic1 at each of C's and D's admissions (one member) and retirements
  // (none), so 1 + 1 + 0 + 1 + 0.
  EXPECT_EQ(CounterValue("net/flowsim/fill_members") - members2, 3u);
}

}  // namespace
}  // namespace gnnpart
