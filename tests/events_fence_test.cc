// Cross-commit fence on the event timeline (DESIGN.md §14): the serialized
// event JSONL of four representative runs is hashed (64-bit FNV-1a) and
// compared to constants recorded from a known-good build. The smoke tests
// only compare runs of one build across thread counts; these constants pin
// every span, flow and link-sample record across changes to the flow
// engine, the simulators and the event log. Each run is repeated at 1 and
// 4 pool threads. A deliberate change to the event stream must re-record
// the constants and say why.
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "dyn/driver.h"
#include "gen/generators.h"
#include "graph/split.h"
#include "metrics/partition_metrics.h"
#include "net/topology.h"
#include "obs/events.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "serve/serve.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Digest of the serialized log; a fence run must carry flow and
// link-sample records, or it pins nothing of the flow engine.
uint64_t EventsDigest(const obs::EventLog& log) {
  size_t flows = 0, samples = 0;
  for (const obs::EpochEvents& epoch : log.epochs()) {
    for (const obs::Event& e : epoch.events) {
      flows += e.kind == obs::Event::Kind::kFlow;
      samples += e.kind == obs::Event::Kind::kSample;
    }
  }
  EXPECT_GT(flows, 0u);
  EXPECT_GT(samples, 0u);
  std::string text;
  obs::WriteEvents(log, {}, &text);
  return Fnv1a(text);
}

Graph FenceGraph() {
  PowerLawCommunityParams p;
  p.num_vertices = 3000;
  p.num_edges = 24000;
  p.skew = 0.7;
  p.num_communities = 32;
  p.mixing = 0.8;
  Result<Graph> g = GeneratePowerLawCommunity(p, 29);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

GnnConfig FenceGnn() {
  GnnConfig c;
  c.arch = GnnArchitecture::kGraphSage;
  c.num_layers = 2;
  c.feature_size = 32;
  c.hidden_dim = 16;
  c.num_classes = 8;
  c.fanouts = GnnConfig::DefaultFanouts(2);
  c.global_batch_size = 32;
  return c;
}

net::NetworkConfig Topology(net::TopologyKind kind, const ClusterSpec& c) {
  net::NetworkConfig cfg = net::NetworkConfig::FromCluster(c);
  cfg.topology = kind;
  cfg.rack_size = 2;
  cfg.oversubscription = 4.0;
  return cfg;
}

// Runs `digest` at 1 and 4 pool threads and checks both against `want`.
template <typename Fn>
void ExpectDigest(const Fn& digest, uint64_t want) {
  for (int threads : {1, 4}) {
    SetDefaultThreads(threads);
    EXPECT_EQ(digest(), want) << "threads " << threads;
  }
  SetDefaultThreads(1);
}

TEST(EventsFenceTest, DistGnnHdrfOnFatTree) {
  const Graph g = FenceGraph();
  ClusterSpec cluster;
  cluster.num_machines = 8;
  const net::Fabric fabric(Topology(net::TopologyKind::kFatTree, cluster), 8);
  ExpectDigest(
      [&] {
        Result<EdgePartitioning> parts =
            MakeEdgePartitioner(EdgePartitionerId::kHdrf)->Partition(g, 8, 42);
        EXPECT_TRUE(parts.ok());
        obs::EventLog log;
        SimulateDistGnnEpoch(BuildDistGnnWorkload(g, *parts), FenceGnn(),
                             cluster, &fabric, nullptr, &log);
        return EventsDigest(log);
      },
      0x12ac71e5ac01a1d4ULL);
}

TEST(EventsFenceTest, DistDglMetisOnRing) {
  const Graph g = FenceGraph();
  const VertexSplit split =
      VertexSplit::MakeRandom(g.num_vertices(), 0.1, 0.1, 17);
  ClusterSpec cluster;
  cluster.num_machines = 4;
  const net::Fabric fabric(Topology(net::TopologyKind::kRing, cluster), 4);
  const GnnConfig gnn = FenceGnn();
  ExpectDigest(
      [&] {
        Result<VertexPartitioning> parts =
            MakeVertexPartitioner(VertexPartitionerId::kMetis)
                ->Partition(g, split, 4, 42);
        EXPECT_TRUE(parts.ok());
        Result<DistDglEpochProfile> profile = ProfileDistDglEpoch(
            g, *parts, split, gnn.fanouts, gnn.global_batch_size, 7);
        EXPECT_TRUE(profile.ok());
        obs::EventLog log;
        SimulateDistDglEpoch(*profile, gnn, cluster, &fabric, nullptr, &log);
        return EventsDigest(log);
      },
      0x601ebc91854936b1ULL);
}

TEST(EventsFenceTest, CotenantServeOnFatTree) {
  const Graph g = FenceGraph();
  Result<EdgePartitioning> parts =
      MakeEdgePartitioner(EdgePartitionerId::kHdrf)->Partition(g, 4, 42);
  ASSERT_TRUE(parts.ok());
  const VertexPartitioning owners = serve::DeriveVertexOwnership(g, *parts);
  serve::ServeConfig config;
  config.workload.arrival_rate = 600.0;
  config.workload.duration = 0.25;
  config.workload.seed = 11;
  config.batch.max_batch = 4;
  config.batch.max_wait = 0.002;
  config.gnn = FenceGnn();
  config.cluster.num_machines = 4;
  config.network = Topology(net::TopologyKind::kFatTree, config.cluster);
  config.cotenant = true;
  config.seed = 13;
  ExpectDigest(
      [&] {
        obs::EventLog log;
        Result<serve::ServeReport> report =
            serve::RunServe(g, owners, config, &log);
        EXPECT_TRUE(report.ok()) << report.status();
        EXPECT_GT(report->cotenant_steps, 0u);
        return EventsDigest(log);
      },
      0x6770c8ba7dc31857ULL);
}

TEST(EventsFenceTest, DynamicHdrfWithPeriodicRepartition) {
  const Graph g = FenceGraph();
  dyn::DynConfig config;
  config.growth_batches = 3;
  config.initial_fraction = 0.5;
  config.repartition_every = 2;
  config.gnn = FenceGnn();
  config.network = Topology(net::TopologyKind::kFatTree, config.cluster);
  dyn::DynPartitionerSpec spec;
  spec.edge = EdgePartitionerId::kHdrf;
  spec.display = "HDRF";
  ExpectDigest(
      [&] {
        obs::EventLog log;
        Result<dyn::DynReport> report =
            dyn::RunDynamic(g, spec, 4, config, &log);
        EXPECT_TRUE(report.ok()) << report.status();
        EXPECT_GT(report->repartitions, 0u);
        return EventsDigest(log);
      },
      0xedd60e53e64d706cULL);
}

}  // namespace
}  // namespace gnnpart
