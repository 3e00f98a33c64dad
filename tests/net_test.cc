// gnnpart::net — topology construction, the discrete-event flow engine's
// fair-share and bit-exactness contracts, the overlap analysis, and the
// validators tying them together (DESIGN.md §10). The load-bearing claims:
// on the full-bisection fabric SimulatePhase *is* the legacy α-β closed
// form bit-exactly, two flows meeting on an oversubscribed uplink split its
// capacity fairly and deterministically, and every accounting artifact is
// byte-identical across thread counts.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/validators.h"
#include "common/parallel.h"
#include "gen/generators.h"
#include "gnn/costs.h"
#include "net/flowsim.h"
#include "net/overlap.h"
#include "net/topology.h"
#include "obs/events.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {
namespace {

TEST(TopologyTest, NameRoundTrip) {
  for (net::TopologyKind kind :
       {net::TopologyKind::kFullBisection, net::TopologyKind::kFatTree,
        net::TopologyKind::kRing}) {
    Result<net::TopologyKind> parsed =
        net::ParseTopologyName(net::TopologyName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  Result<net::TopologyKind> bad = net::ParseTopologyName("mesh");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown topology"), std::string::npos);
}

TEST(TopologyTest, FabricShapesAreDeterministic) {
  net::NetworkConfig config;
  config.topology = net::TopologyKind::kFatTree;
  config.rack_size = 2;
  net::Fabric fabric(config, 5);  // last rack holds a single host
  ASSERT_EQ(fabric.links().size(), 8u);  // 5 NICs + 3 uplinks
  EXPECT_EQ(fabric.links()[0].name, "nic0");
  EXPECT_EQ(fabric.links()[5].name, "uplink0");
  // The lone host of rack 2 has no in-rack peers: one remote-only route.
  ASSERT_EQ(fabric.HostRoutes(4).size(), 1u);
  EXPECT_EQ(fabric.HostWeight(4), 4u);
  for (int h = 0; h < 5; ++h) {
    EXPECT_FALSE(fabric.HostRoutes(h).empty());
    uint32_t sum = 0;
    for (const net::Route& r : fabric.HostRoutes(h)) sum += r.weight;
    EXPECT_EQ(sum, fabric.HostWeight(h));
  }
}

TEST(FlowSimTest, FullBisectionReproducesClosedFormBitExactly) {
  // The tentpole contract: on the legacy fabric every host's completion is
  // (start + bytes / B) + rounds * latency with exactly that floating-point
  // association — EXPECT_EQ, not EXPECT_NEAR.
  net::NetworkConfig config;  // defaults: 125e6 B/s, 100us
  net::Fabric fabric(config, 4);
  net::PhaseSpec spec(4);
  for (size_t h = 0; h < 4; ++h) {
    spec.start[h] = 0.0003 + 0.001 * static_cast<double>(h);
    spec.bytes[h] = 1e6 * static_cast<double>(h + 1) + 37.0;
    spec.rounds[h] = 2.0;
  }
  net::LinkUsage usage;
  std::vector<double> done = net::SimulatePhase(fabric, spec, &usage);
  for (size_t h = 0; h < 4; ++h) {
    EXPECT_EQ(done[h], (spec.start[h] + spec.bytes[h] / config.nic_bandwidth) +
                           spec.rounds[h] * config.link_latency);
    EXPECT_EQ(usage.host_egress_bytes[h], spec.bytes[h]);
    EXPECT_EQ(usage.link_bytes[h], spec.bytes[h]);
  }
  EXPECT_EQ(usage.phases, 1u);
  EXPECT_EQ(usage.flows, 4u);
}

TEST(FlowSimTest, ZeroByteHostFinishesAtLatencyFloor) {
  net::Fabric fabric(net::NetworkConfig{}, 2);
  net::PhaseSpec spec(2);
  spec.start = {0.5, 0.0};
  spec.bytes = {0.0, 1000.0};
  spec.rounds = {3.0, 0.0};
  net::LinkUsage usage;
  std::vector<double> done = net::SimulatePhase(fabric, spec, &usage);
  EXPECT_EQ(done[0], 0.5 + 3.0 * fabric.config().link_latency);
  EXPECT_EQ(usage.host_egress_bytes[0], 0.0);
  EXPECT_EQ(usage.flows, 1u);  // the zero-byte host never entered the engine
}

// Two hosts of one rack each push 300 bytes; 200 of each cross the shared
// uplink. At 2:1 oversubscription the uplink capacity equals one NIC, so
// the two remote flows must split it 50/50 — fairly, deterministically, and
// strictly slower than the non-blocking fat-tree.
TEST(FlowSimTest, OversubscribedUplinkSplitsBandwidthFairly) {
  net::NetworkConfig config;
  config.topology = net::TopologyKind::kFatTree;
  config.rack_size = 2;
  config.oversubscription = 2.0;
  config.nic_bandwidth = 100.0;  // bytes/s, for round numbers
  config.link_latency = 0.0;
  net::Fabric fabric(config, 4);
  net::PhaseSpec spec(4);
  spec.bytes = {300.0, 300.0, 0.0, 0.0};
  net::LinkUsage usage;
  std::vector<double> done = net::SimulatePhase(fabric, spec, &usage);

  // Phase timeline: each host's 100 intra-rack bytes and 200 inter-rack
  // bytes share its NIC at 50 B/s each; when the intra-rack flows retire at
  // t=2 the remote flows stay pinned at 50 B/s by the uplink (cap 100, two
  // flows) and finish at exactly 200/50 = 4 s.
  EXPECT_EQ(done[0], 4.0);
  EXPECT_EQ(done[1], 4.0);  // symmetric hosts: identical completion
  const size_t uplink0 = 4;  // links: nic0..nic3, uplink0, uplink1
  EXPECT_EQ(fabric.links()[uplink0].name, "uplink0");
  EXPECT_EQ(usage.link_bytes[uplink0], 400.0);
  EXPECT_EQ(usage.link_busy_seconds[uplink0], 4.0);
  EXPECT_EQ(usage.host_egress_bytes[0], 300.0);

  // Determinism: a second run is byte-identical.
  net::LinkUsage again_usage;
  std::vector<double> again = net::SimulatePhase(fabric, spec, &again_usage);
  EXPECT_EQ(again, done);
  EXPECT_EQ(again_usage.link_bytes, usage.link_bytes);
  EXPECT_EQ(again_usage.link_busy_seconds, usage.link_busy_seconds);

  // Non-blocking uplink: the remote flows get the full NIC after t=2 and
  // the phase ends a second earlier. Oversubscription must cost time.
  net::NetworkConfig fast = config;
  fast.oversubscription = 1.0;
  std::vector<double> unblocked =
      net::SimulatePhase(net::Fabric(fast, 4), spec, nullptr);
  EXPECT_EQ(unblocked[0], 3.0);
  EXPECT_LT(unblocked[0], done[0]);
}

TEST(FlowSimTest, RingSplitsTrafficAcrossBothDirections) {
  net::NetworkConfig config;
  config.topology = net::TopologyKind::kRing;
  config.nic_bandwidth = 100.0;
  config.link_latency = 0.0;
  net::Fabric fabric(config, 4);
  net::PhaseSpec spec(4);
  spec.bytes[0] = 300.0;  // 100 to each other host
  net::LinkUsage usage;
  std::vector<double> done = net::SimulatePhase(fabric, spec, &usage);
  // Destination splits: offset 1 rides cw0, offset 2 rides cw0+cw1
  // (clockwise on the distance tie), offset 3 rides ccw0. cw0 carries two
  // 100-byte flows at 50 B/s each -> the host finishes at t=2.
  EXPECT_EQ(done[0], 2.0);
  EXPECT_EQ(usage.link_bytes[0], 200.0);  // cw0
  EXPECT_EQ(usage.link_bytes[1], 100.0);  // cw1
  EXPECT_EQ(usage.link_bytes[4], 100.0);  // ccw0
  EXPECT_EQ(usage.host_egress_bytes[0], 300.0);
  EXPECT_TRUE(check::ValidateFlowConservation(fabric, usage).ok());
}

TEST(FlowSimTest, UnitWeightsAreBitIdenticalToUnweightedEngine) {
  // The serve-weight contract: a run where every flow carries the default
  // weight 1.0 is bitwise the historical unweighted engine — EXPECT_EQ on
  // completions, per-flow details and link samples, not EXPECT_NEAR.
  net::NetworkConfig config;
  config.topology = net::TopologyKind::kFatTree;
  config.rack_size = 2;
  config.oversubscription = 2.0;
  net::Fabric fabric(config, 4);
  std::vector<net::Flow> flows;
  for (int h = 0; h < 4; ++h) {
    net::AppendHostFlows(fabric, h, 0.0001 * h, 3e6 + 11.0 * h, 2.0,
                         /*weight=*/1.0, &flows);
  }
  for (const net::Flow& f : flows) EXPECT_EQ(f.weight, 1.0);
  net::LinkUsage usage;
  std::vector<obs::Event> log;
  std::vector<double> done = net::SimulateFlows(fabric, flows, &usage, &log);

  // The same phase through the legacy entry point (which builds weight-1.0
  // flows via the identical route expansion) must agree byte-for-byte.
  net::PhaseSpec spec(4);
  for (size_t h = 0; h < 4; ++h) {
    spec.start[h] = 0.0001 * static_cast<double>(h);
    spec.bytes[h] = 3e6 + 11.0 * static_cast<double>(h);
    spec.rounds[h] = 2.0;
  }
  net::LinkUsage phase_usage;
  std::vector<obs::Event> phase_log;
  net::SimulatePhase(fabric, spec, &phase_usage, &phase_log);
  ASSERT_EQ(log.size(), phase_log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].kind, phase_log[i].kind);
    EXPECT_EQ(log[i].t0, phase_log[i].t0);
    EXPECT_EQ(log[i].t1, phase_log[i].t1);
    EXPECT_EQ(log[i].t1_free, phase_log[i].t1_free);
    EXPECT_EQ(log[i].bytes, phase_log[i].bytes);
    EXPECT_EQ(log[i].rate, phase_log[i].rate);
  }
  EXPECT_EQ(usage.link_bytes, phase_usage.link_bytes);
  EXPECT_EQ(usage.link_busy_seconds, phase_usage.link_busy_seconds);
  (void)done;
}

TEST(FlowSimTest, WeightedFlowsSplitBottleneckProportionally) {
  // Two flows share one 100 B/s NIC. At weight 3:1 the heavy flow drains at
  // 75 B/s and the light one at 25 B/s until the heavy flow's 150 bytes
  // finish at t=2; the light flow then takes the whole link for its
  // remaining 50 bytes and completes at t=2.5. Delivered bytes are
  // conserved regardless of weights.
  net::NetworkConfig config;
  config.nic_bandwidth = 100.0;
  config.link_latency = 0.0;
  net::Fabric fabric(config, 2);
  std::vector<net::Flow> flows(2);
  flows[0].host = 0;
  flows[0].bytes = 150.0;
  flows[0].weight = 3.0;
  flows[0].links = {0};
  flows[1].host = 0;
  flows[1].bytes = 100.0;
  flows[1].weight = 1.0;
  flows[1].links = {0};
  net::LinkUsage usage;
  std::vector<double> done = net::SimulateFlows(fabric, flows, &usage);
  EXPECT_EQ(done[0], 2.0);
  EXPECT_EQ(done[1], 2.5);
  EXPECT_EQ(usage.link_bytes[0], 250.0);
  EXPECT_EQ(usage.link_busy_seconds[0], 2.5);

  // Equal weights > 1 behave exactly like weight 1 (the shares cancel).
  for (net::Flow& f : flows) f.weight = 4.0;
  std::vector<double> equal = net::SimulateFlows(fabric, flows, nullptr);
  flows[0].weight = flows[1].weight = 1.0;
  std::vector<double> unit = net::SimulateFlows(fabric, flows, nullptr);
  EXPECT_EQ(equal, unit);
}

TEST(FlowSimTest, StaggeredArrivalsStayMonotonic) {
  // Late flows on a shared link slow earlier ones down but never move any
  // completion before its closed-form minimum.
  net::NetworkConfig config;
  config.topology = net::TopologyKind::kFatTree;
  config.rack_size = 4;
  config.oversubscription = 4.0;
  config.nic_bandwidth = 100.0;
  config.link_latency = 1e-3;
  net::Fabric fabric(config, 8);
  net::PhaseSpec spec(8);
  for (size_t h = 0; h < 8; ++h) {
    spec.start[h] = 0.25 * static_cast<double>(h % 3);
    spec.bytes[h] = 500.0 + 10.0 * static_cast<double>(h);
    spec.rounds[h] = 1.0;
  }
  std::vector<double> done = net::SimulatePhase(fabric, spec, nullptr);
  for (size_t h = 0; h < 8; ++h) {
    EXPECT_GE(done[h], (spec.start[h] + spec.bytes[h] / config.nic_bandwidth) +
                           spec.rounds[h] * config.link_latency);
  }
}

Graph SimGraph() {
  RmatParams p;
  p.num_vertices = 3000;
  p.num_edges = 30000;
  Result<Graph> g = GenerateRmat(p, 71);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

GnnConfig SimConfig() {
  GnnConfig c;
  c.arch = GnnArchitecture::kGraphSage;
  c.num_layers = 3;
  c.feature_size = 64;
  c.hidden_dim = 64;
  c.num_classes = 16;
  return c;
}

TEST(NetSimIntegrationTest, DistGnnDefaultFabricIsBitExactLegacy) {
  Graph g = SimGraph();
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kHdrf)->Partition(g, 8, 42);
  ASSERT_TRUE(parts.ok());
  DistGnnWorkload w = BuildDistGnnWorkload(g, parts.value());
  ClusterSpec cluster;
  GnnConfig config = SimConfig();

  DistGnnEpochReport implicit = SimulateDistGnnEpoch(w, config, cluster);
  net::Fabric fabric(net::NetworkConfig::FromCluster(cluster), 8);
  DistGnnEpochReport explicit_fabric =
      SimulateDistGnnEpoch(w, config, cluster, &fabric, nullptr);
  EXPECT_EQ(implicit.epoch_seconds, explicit_fabric.epoch_seconds);
  EXPECT_EQ(implicit.forward_seconds, explicit_fabric.forward_seconds);
  EXPECT_EQ(implicit.backward_seconds, explicit_fabric.backward_seconds);
  EXPECT_EQ(implicit.optimizer_seconds, explicit_fabric.optimizer_seconds);
  EXPECT_EQ(implicit.sync_seconds, explicit_fabric.sync_seconds);

  // The optimizer charge is the legacy ring-all-reduce closed form
  // bit-exactly: 2 * params / B + 2 rounds of latency + the local step.
  double params = ModelParameterBytes(config);
  EXPECT_EQ(implicit.optimizer_seconds,
            2.0 * params / cluster.network_bandwidth +
                2.0 * cluster.network_latency +
                params / sizeof(float) / cluster.flops_per_second);

  // A contended fabric can only be slower than the non-blocking one.
  net::NetworkConfig squeezed = net::NetworkConfig::FromCluster(cluster);
  squeezed.topology = net::TopologyKind::kFatTree;
  squeezed.rack_size = 4;
  squeezed.oversubscription = 8.0;
  net::Fabric slow(squeezed, 8);
  DistGnnEpochReport contended =
      SimulateDistGnnEpoch(w, config, cluster, &slow, nullptr);
  EXPECT_GT(contended.epoch_seconds, implicit.epoch_seconds);
  EXPECT_EQ(contended.total_network_bytes, implicit.total_network_bytes);
}

struct DglFixture {
  Graph graph;
  VertexSplit split;
  DistDglEpochProfile profile;
};

DglFixture MakeDglFixture() {
  PowerLawCommunityParams p;
  p.num_vertices = 4000;
  p.num_edges = 36000;
  p.skew = 0.7;
  p.num_communities = 48;
  p.mixing = 0.8;
  Result<Graph> g = GeneratePowerLawCommunity(p, 91);
  EXPECT_TRUE(g.ok());
  DglFixture f{std::move(g).value(), {}, {}};
  f.split = VertexSplit::MakeRandom(f.graph.num_vertices(), 0.1, 0.1, 17);
  auto parts = MakeVertexPartitioner(VertexPartitionerId::kMetis)
                   ->Partition(f.graph, f.split, 4, 42);
  EXPECT_TRUE(parts.ok());
  auto profile = ProfileDistDglEpoch(f.graph, parts.value(), f.split,
                                     {15, 10, 5}, 256, 7);
  EXPECT_TRUE(profile.ok());
  f.profile = std::move(profile).value();
  return f;
}

void ExpectReportsEqual(const DistDglEpochReport& a,
                        const DistDglEpochReport& b) {
  EXPECT_EQ(a.epoch_seconds, b.epoch_seconds);
  EXPECT_EQ(a.sampling_seconds, b.sampling_seconds);
  EXPECT_EQ(a.feature_seconds, b.feature_seconds);
  EXPECT_EQ(a.forward_seconds, b.forward_seconds);
  EXPECT_EQ(a.backward_seconds, b.backward_seconds);
  EXPECT_EQ(a.update_seconds, b.update_seconds);
  EXPECT_EQ(a.total_network_bytes, b.total_network_bytes);
  EXPECT_EQ(a.time_balance, b.time_balance);
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (size_t w = 0; w < a.workers.size(); ++w) {
    EXPECT_EQ(a.workers[w].sampling_seconds, b.workers[w].sampling_seconds);
    EXPECT_EQ(a.workers[w].feature_seconds, b.workers[w].feature_seconds);
    EXPECT_EQ(a.workers[w].backward_seconds, b.workers[w].backward_seconds);
    EXPECT_EQ(a.workers[w].network_bytes, b.workers[w].network_bytes);
  }
}

TEST(NetSimIntegrationTest, DistDglDefaultFabricIsBitExactLegacy) {
  DglFixture f = MakeDglFixture();
  ClusterSpec cluster;
  GnnConfig config = SimConfig();
  DistDglEpochReport implicit =
      SimulateDistDglEpoch(f.profile, config, cluster);
  net::Fabric fabric(net::NetworkConfig::FromCluster(cluster), 4);
  DistDglEpochReport explicit_fabric = SimulateDistDglEpoch(
      f.profile, config, cluster, &fabric, nullptr);
  ExpectReportsEqual(implicit, explicit_fabric);
}

TEST(NetSimIntegrationTest, LinkUsageIsThreadCountInvariant) {
  DglFixture f = MakeDglFixture();
  ClusterSpec cluster;
  GnnConfig config = SimConfig();
  net::NetworkConfig netcfg = net::NetworkConfig::FromCluster(cluster);
  netcfg.topology = net::TopologyKind::kRing;
  net::Fabric fabric(netcfg, 4);

  SetDefaultThreads(1);
  net::LinkUsage reference;
  DistDglEpochReport ref_report = SimulateDistDglEpoch(
      f.profile, config, cluster, &fabric, &reference);
  for (int threads : {2, 8}) {
    SetDefaultThreads(threads);
    net::LinkUsage probe;
    DistDglEpochReport report = SimulateDistDglEpoch(
        f.profile, config, cluster, &fabric, &probe);
    EXPECT_EQ(report.epoch_seconds, ref_report.epoch_seconds) << threads;
    EXPECT_EQ(probe.link_bytes, reference.link_bytes) << threads;
    EXPECT_EQ(probe.link_busy_seconds, reference.link_busy_seconds) << threads;
    EXPECT_EQ(probe.host_egress_bytes, reference.host_egress_bytes) << threads;
    EXPECT_EQ(probe.host_offered_bytes, reference.host_offered_bytes)
        << threads;
    EXPECT_EQ(probe.phases, reference.phases) << threads;
    EXPECT_EQ(probe.flows, reference.flows) << threads;
  }
  SetDefaultThreads(1);
  EXPECT_TRUE(check::ValidateFlowConservation(fabric, reference).ok());
}

TEST(OverlapTest, PipelinedNeverExceedsBspAndIdentityHolds) {
  Graph g = SimGraph();
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kDbh)->Partition(g, 8, 42);
  ASSERT_TRUE(parts.ok());
  DistGnnWorkload w = BuildDistGnnWorkload(g, parts.value());
  ClusterSpec cluster;
  obs::EventLog log;
  DistGnnEpochReport report =
      SimulateDistGnnEpoch(w, SimConfig(), cluster, nullptr, nullptr, &log);
  const obs::EpochEvents& epoch = log.epochs().back();
  net::OverlapReport overlap = net::ComputeOverlap(epoch);

  EXPECT_EQ(overlap.hidden_seconds,
            overlap.bsp_epoch_seconds - overlap.pipelined_epoch_seconds);
  EXPECT_GE(overlap.hidden_seconds, 0.0);
  EXPECT_NEAR(overlap.bsp_epoch_seconds, report.epoch_seconds,
              1e-12 * report.epoch_seconds);
  double blame = 0;
  for (const net::StepOverlap& s : overlap.steps) {
    EXPECT_LE(s.pipelined_seconds, s.bsp_seconds);
    EXPECT_LT(s.straggler, 8u);
    blame += s.pipelined_seconds;
  }
  double blamed = 0;
  for (double b : overlap.worker_pipelined_blame) blamed += b;
  EXPECT_DOUBLE_EQ(blamed, blame);
  EXPECT_TRUE(check::ValidateOverlapReport(epoch, overlap).ok());

  // Tampered reports must not validate.
  net::OverlapReport forged = overlap;
  forged.hidden_seconds += 1e-3;
  EXPECT_FALSE(check::ValidateOverlapReport(epoch, forged).ok());
}

TEST(ValidatorTest, FlowConservationCatchesCorruption) {
  net::Fabric fabric(net::NetworkConfig{}, 3);
  net::PhaseSpec spec(3);
  spec.bytes = {1000.0, 2000.0, 0.0};
  net::LinkUsage usage;
  net::SimulatePhase(fabric, spec, &usage);
  ASSERT_TRUE(check::ValidateFlowConservation(fabric, usage).ok());

  net::LinkUsage leaking = usage;
  leaking.host_egress_bytes[0] += 512.0;
  Status leak = check::ValidateFlowConservation(fabric, leaking);
  ASSERT_FALSE(leak.ok());
  EXPECT_NE(leak.message().find("net/flow-conservation"), std::string::npos);

  net::LinkUsage negative = usage;
  negative.link_bytes[0] = -1.0;
  Status neg = check::ValidateFlowConservation(fabric, negative);
  ASSERT_FALSE(neg.ok());
  EXPECT_NE(neg.message().find("net/usage-negative"), std::string::npos);

  net::LinkUsage empty;
  Status shape = check::ValidateFlowConservation(fabric, empty);
  ASSERT_FALSE(shape.ok());
  EXPECT_NE(shape.message().find("net/usage-shape"), std::string::npos);
}

}  // namespace
}  // namespace gnnpart
