#include <gtest/gtest.h>

#include "gen/generators.h"
#include "gnn/layers.h"
#include "metrics/partition_metrics.h"
#include "partition/edge/registry.h"
#include "sim/partitioned_aggregate.h"

namespace gnnpart {
namespace {

Graph AggGraph() {
  PowerLawCommunityParams p;
  p.num_vertices = 800;
  p.num_edges = 6000;
  Result<Graph> g = GeneratePowerLawCommunity(p, 41);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

class PartitionedAggregateTest
    : public ::testing::TestWithParam<EdgePartitionerId> {};

TEST_P(PartitionedAggregateTest, EqualsGlobalMeanAggregate) {
  // The core claim behind the DistGNN simulator's sync accounting: local
  // partial aggregation + replica sync + degree normalization reproduces
  // the global mean aggregation exactly, for every partitioner.
  Graph g = AggGraph();
  auto parts = MakeEdgePartitioner(GetParam())->Partition(g, 8, 13);
  ASSERT_TRUE(parts.ok());
  Rng rng(3);
  Matrix h = Matrix::Xavier(g.num_vertices(), 8, &rng);
  Matrix global = MeanAggregate(g, h);
  Result<PartitionedAggregateResult> dist =
      PartitionedMeanAggregate(g, *parts, h);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ASSERT_TRUE(global.SameShape(dist->aggregated));
  for (size_t i = 0; i < global.data().size(); ++i) {
    EXPECT_NEAR(global.data()[i], dist->aggregated.data()[i], 1e-4)
        << "entry " << i;
  }
}

TEST_P(PartitionedAggregateTest, SyncVolumeMatchesMetrics) {
  // synced_partials must equal the metrics module's total replica count —
  // the exact quantity the epoch simulator charges per layer.
  Graph g = AggGraph();
  auto parts = MakeEdgePartitioner(GetParam())->Partition(g, 8, 13);
  ASSERT_TRUE(parts.ok());
  Matrix h(g.num_vertices(), 4, 1.0f);
  Result<PartitionedAggregateResult> dist =
      PartitionedMeanAggregate(g, *parts, h);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(g, *parts);
  EXPECT_EQ(dist->synced_partials, m.total_replicas);
  EXPECT_DOUBLE_EQ(dist->synced_bytes,
                   static_cast<double>(m.total_replicas) * 4 * sizeof(float));
}

INSTANTIATE_TEST_SUITE_P(
    AllEdgePartitioners, PartitionedAggregateTest,
    ::testing::ValuesIn(AllEdgePartitionersExtended()),
    [](const ::testing::TestParamInfo<EdgePartitionerId>& info) {
      std::string name = MakeEdgePartitioner(info.param)->name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(PartitionedAggregateTest, BetterPartitionerSyncsLess) {
  Graph g = AggGraph();
  Matrix h(g.num_vertices(), 4, 1.0f);
  auto bytes = [&](EdgePartitionerId id) {
    auto parts = MakeEdgePartitioner(id)->Partition(g, 8, 13);
    EXPECT_TRUE(parts.ok());
    Result<PartitionedAggregateResult> dist =
        PartitionedMeanAggregate(g, *parts, h);
    EXPECT_TRUE(dist.ok()) << dist.status().ToString();
    return dist.ok() ? dist->synced_bytes : 0.0;
  };
  EXPECT_LT(bytes(EdgePartitionerId::kHep100),
            bytes(EdgePartitionerId::kRandom));
}

TEST(PartitionedAggregateTest, SinglePartitionSyncsNothing) {
  Graph g = AggGraph();
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kRandom)
                   ->Partition(g, 1, 13);
  ASSERT_TRUE(parts.ok());
  Matrix h(g.num_vertices(), 4, 1.0f);
  Result<PartitionedAggregateResult> dist =
      PartitionedMeanAggregate(g, *parts, h);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(dist->synced_partials, 0u);
  EXPECT_EQ(dist->synced_bytes, 0.0);
}

TEST(PartitionedAggregateTest, EdgeOutsideTheMasksIsNamed) {
  // An edge on a partition that has no partial rows fails the call with a
  // status naming the edge and the partition, instead of reading past the
  // partial buffers.
  Graph g = AggGraph();
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kRandom)
                   ->Partition(g, 2, 13);
  ASSERT_TRUE(parts.ok());
  parts->assignment[5] = 2;
  Matrix h(g.num_vertices(), 4, 1.0f);
  Result<PartitionedAggregateResult> dist =
      PartitionedMeanAggregate(g, *parts, h);
  ASSERT_FALSE(dist.ok());
  const std::string message = dist.status().ToString();
  EXPECT_NE(message.find("edge 5 ("), std::string::npos) << message;
  EXPECT_NE(message.find("on partition 2"), std::string::npos) << message;
}

}  // namespace
}  // namespace gnnpart
