#include <gtest/gtest.h>

#include "common/stats.h"
#include "gen/generators.h"
#include "metrics/partition_metrics.h"
#include "partition/edge/registry.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {
namespace {

Graph SimGraph() {
  RmatParams p;
  p.num_vertices = 3000;
  p.num_edges = 30000;
  Result<Graph> g = GenerateRmat(p, 71);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

GnnConfig Config(size_t feature, size_t hidden, int layers) {
  GnnConfig c;
  c.arch = GnnArchitecture::kGraphSage;
  c.num_layers = layers;
  c.feature_size = feature;
  c.hidden_dim = hidden;
  c.num_classes = 16;
  return c;
}

EdgePartitioning PartitionWith(const Graph& g, EdgePartitionerId id,
                               PartitionId k) {
  auto parts = MakeEdgePartitioner(id)->Partition(g, k, 42);
  EXPECT_TRUE(parts.ok());
  return std::move(parts).value();
}

TEST(DistGnnWorkloadTest, CountsAreConsistent) {
  Graph g = SimGraph();
  EdgePartitioning parts = PartitionWith(g, EdgePartitionerId::kRandom, 8);
  DistGnnWorkload w = BuildDistGnnWorkload(g, parts);
  EXPECT_EQ(w.k, 8u);
  uint64_t edges = 0;
  for (uint64_t e : w.edges) edges += e;
  EXPECT_EQ(edges, g.num_edges());
  // Covered vertices match the metrics module exactly.
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(g, parts);
  EXPECT_DOUBLE_EQ(w.replication_factor, m.replication_factor);
  EXPECT_EQ(w.synced_vertices, m.synced_vertices_per_partition);
  for (PartitionId p = 0; p < 8; ++p) {
    EXPECT_EQ(w.vertices[p], m.vertices_per_partition[p]);
    EXPECT_LE(w.synced_vertices[p], w.vertices[p]);
  }
}

TEST(DistGnnSimTest, EpochBreakdownSumsUp) {
  Graph g = SimGraph();
  DistGnnWorkload w =
      BuildDistGnnWorkload(g, PartitionWith(g, EdgePartitionerId::kHdrf, 8));
  ClusterSpec cluster;
  DistGnnEpochReport r = SimulateDistGnnEpoch(w, Config(64, 64, 3), cluster);
  EXPECT_GT(r.epoch_seconds, 0);
  EXPECT_NEAR(r.epoch_seconds,
              r.forward_seconds + r.backward_seconds + r.optimizer_seconds,
              1e-12);
  EXPECT_EQ(r.machines.size(), 8u);
  EXPECT_GT(r.total_network_bytes, 0);
  EXPECT_GT(r.max_memory_bytes, 0);
  EXPECT_GE(r.memory_balance, 1.0);
}

TEST(DistGnnSimTest, LowerReplicationFactorIsFaster) {
  // The paper's headline result: HEP-style low-RF partitionings train
  // faster than Random because both compute and communication scale with
  // covered vertices.
  Graph g = SimGraph();
  ClusterSpec cluster;
  GnnConfig config = Config(64, 64, 3);
  DistGnnWorkload random =
      BuildDistGnnWorkload(g, PartitionWith(g, EdgePartitionerId::kRandom, 16));
  DistGnnWorkload hep = BuildDistGnnWorkload(
      g, PartitionWith(g, EdgePartitionerId::kHep100, 16));
  ASSERT_LT(hep.replication_factor, random.replication_factor);
  double t_random = SimulateDistGnnEpoch(random, config, cluster).epoch_seconds;
  double t_hep = SimulateDistGnnEpoch(hep, config, cluster).epoch_seconds;
  EXPECT_LT(t_hep, t_random);
}

TEST(DistGnnSimTest, NetworkCorrelatesWithReplicationFactor) {
  // Paper Fig. 3: R^2 >= 0.98 between RF and network traffic.
  Graph g = SimGraph();
  ClusterSpec cluster;
  GnnConfig config = Config(64, 64, 3);
  std::vector<double> rf, net;
  for (auto id : AllEdgePartitioners()) {
    for (PartitionId k : {4u, 8u, 16u, 32u}) {
      DistGnnWorkload w = BuildDistGnnWorkload(g, PartitionWith(g, id, k));
      DistGnnEpochReport r = SimulateDistGnnEpoch(w, config, cluster);
      rf.push_back(w.replication_factor);
      net.push_back(r.total_network_bytes);
    }
  }
  EXPECT_GT(RSquaredLinear(rf, net), 0.95);
}

TEST(DistGnnSimTest, MemoryCorrelatesWithReplicationFactor) {
  // Paper: R^2 >= 0.99 between RF and memory footprint.
  Graph g = SimGraph();
  ClusterSpec cluster;
  GnnConfig config = Config(64, 64, 3);
  std::vector<double> rf, mem;
  for (auto id : AllEdgePartitioners()) {
    DistGnnWorkload w = BuildDistGnnWorkload(g, PartitionWith(g, id, 16));
    DistGnnEpochReport r = SimulateDistGnnEpoch(w, config, cluster);
    rf.push_back(w.replication_factor);
    mem.push_back(r.mean_memory_bytes);
  }
  EXPECT_GT(RSquaredLinear(rf, mem), 0.95);
}

TEST(DistGnnSimTest, VertexImbalanceShowsInMemoryBalance) {
  // Paper Fig. 5: vertex balance correlates with memory utilization
  // balance. Build a deliberately imbalanced partitioning and compare.
  Graph g = SimGraph();
  ClusterSpec cluster;
  GnnConfig config = Config(64, 64, 3);

  EdgePartitioning balanced = PartitionWith(g, EdgePartitionerId::kRandom, 4);
  // Skew: move most of partition 1's edges to partition 0.
  EdgePartitioning skewed = balanced;
  for (EdgeId e = 0; e < skewed.assignment.size(); ++e) {
    if (skewed.assignment[e] == 1 && e % 4 != 0) skewed.assignment[e] = 0;
  }
  DistGnnEpochReport rb = SimulateDistGnnEpoch(
      BuildDistGnnWorkload(g, balanced), config, cluster);
  DistGnnEpochReport rs = SimulateDistGnnEpoch(
      BuildDistGnnWorkload(g, skewed), config, cluster);
  EXPECT_GT(rs.memory_balance, rb.memory_balance);
}

TEST(DistGnnSimTest, FeatureSizeRaisesMemoryEffectiveness) {
  // Paper Fig. 10a: the larger the feature size, the more effective good
  // partitioning is at reducing the memory footprint (in % of Random).
  Graph g = SimGraph();
  ClusterSpec cluster;
  DistGnnWorkload random =
      BuildDistGnnWorkload(g, PartitionWith(g, EdgePartitionerId::kRandom, 8));
  DistGnnWorkload hep = BuildDistGnnWorkload(
      g, PartitionWith(g, EdgePartitionerId::kHep100, 8));
  auto mem_percent = [&](size_t feature) {
    GnnConfig c = Config(feature, 16, 3);
    double m_hep = SimulateDistGnnEpoch(hep, c, cluster).mean_memory_bytes;
    double m_rand =
        SimulateDistGnnEpoch(random, c, cluster).mean_memory_bytes;
    return 100.0 * m_hep / m_rand;
  };
  EXPECT_LT(mem_percent(512), mem_percent(16));
}

TEST(DistGnnSimTest, OutOfMemoryDetection) {
  Graph g = SimGraph();
  DistGnnWorkload w =
      BuildDistGnnWorkload(g, PartitionWith(g, EdgePartitionerId::kRandom, 4));
  ClusterSpec tiny;
  tiny.memory_budget_bytes = 1;  // everything OOMs
  EXPECT_TRUE(SimulateDistGnnEpoch(w, Config(64, 64, 3), tiny).out_of_memory);
  ClusterSpec huge;
  huge.memory_budget_bytes = 1e15;
  EXPECT_FALSE(
      SimulateDistGnnEpoch(w, Config(64, 64, 3), huge).out_of_memory);
}

TEST(DistGnnSimTest, MoreLayersMoreTimeAndMemory) {
  Graph g = SimGraph();
  ClusterSpec cluster;
  DistGnnWorkload w =
      BuildDistGnnWorkload(g, PartitionWith(g, EdgePartitionerId::kHdrf, 8));
  DistGnnEpochReport r2 = SimulateDistGnnEpoch(w, Config(64, 64, 2), cluster);
  DistGnnEpochReport r4 = SimulateDistGnnEpoch(w, Config(64, 64, 4), cluster);
  EXPECT_GT(r4.epoch_seconds, r2.epoch_seconds);
  EXPECT_GT(r4.max_memory_bytes, r2.max_memory_bytes);
}

TEST(DistGnnSimTest, DeterministicArithmetic) {
  Graph g = SimGraph();
  ClusterSpec cluster;
  DistGnnWorkload w =
      BuildDistGnnWorkload(g, PartitionWith(g, EdgePartitionerId::kDbh, 8));
  GnnConfig config = Config(64, 64, 3);
  DistGnnEpochReport a = SimulateDistGnnEpoch(w, config, cluster);
  DistGnnEpochReport b = SimulateDistGnnEpoch(w, config, cluster);
  EXPECT_EQ(a.epoch_seconds, b.epoch_seconds);
  EXPECT_EQ(a.total_network_bytes, b.total_network_bytes);
}

}  // namespace
}  // namespace gnnpart
