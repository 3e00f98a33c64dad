#include <gtest/gtest.h>

#include "gen/generators.h"
#include "partition/vertex/registry.h"
#include "sim/distdgl_sim.h"

namespace gnnpart {
namespace {

struct Fixture {
  Graph graph;
  VertexSplit split;
};

Fixture SimFixture() {
  // Community-structured power law, like the study's real graphs (a pure
  // R-MAT graph has no locality for any partitioner to find).
  PowerLawCommunityParams p;
  p.num_vertices = 4000;
  p.num_edges = 36000;
  p.skew = 0.7;
  p.num_communities = 48;
  p.mixing = 0.8;
  Result<Graph> g = GeneratePowerLawCommunity(p, 91);
  EXPECT_TRUE(g.ok());
  Fixture f{std::move(g).value(), {}};
  f.split = VertexSplit::MakeRandom(f.graph.num_vertices(), 0.1, 0.1, 17);
  return f;
}

VertexPartitioning PartitionWith(const Fixture& f, VertexPartitionerId id,
                                 PartitionId k) {
  auto parts = MakeVertexPartitioner(id)->Partition(f.graph, f.split, k, 42);
  EXPECT_TRUE(parts.ok());
  return std::move(parts).value();
}

GnnConfig Config(size_t feature, size_t hidden, int layers,
                 GnnArchitecture arch = GnnArchitecture::kGraphSage) {
  GnnConfig c;
  c.arch = arch;
  c.num_layers = layers;
  c.feature_size = feature;
  c.hidden_dim = hidden;
  c.num_classes = 16;
  c.fanouts = GnnConfig::DefaultFanouts(layers);
  return c;
}

TEST(ProfileTest, StepsAndWorkersShapedCorrectly) {
  Fixture f = SimFixture();
  VertexPartitioning parts = PartitionWith(f, VertexPartitionerId::kRandom, 4);
  auto profile =
      ProfileDistDglEpoch(f.graph, parts, f.split, {15, 10, 5}, 256, 7);
  ASSERT_TRUE(profile.ok()) << profile.status();
  size_t expected_steps = (f.split.train_vertices().size() + 255) / 256;
  EXPECT_EQ(profile->steps, expected_steps);
  EXPECT_EQ(profile->workers, 4u);
  ASSERT_EQ(profile->profiles.size(), expected_steps);
  for (const auto& step : profile->profiles) {
    ASSERT_EQ(step.size(), 4u);
    for (const auto& mb : step) {
      EXPECT_EQ(mb.seeds, 64u);
      EXPECT_GT(mb.input_vertices, 0u);
    }
  }
  EXPECT_GT(profile->TotalInputVertices(), 0u);
  EXPECT_GE(profile->InputVertexBalance(), 1.0);
}

TEST(ProfileTest, RejectsBadArguments) {
  Fixture f = SimFixture();
  VertexPartitioning parts = PartitionWith(f, VertexPartitionerId::kRandom, 4);
  EXPECT_FALSE(
      ProfileDistDglEpoch(f.graph, parts, f.split, {10}, 0, 7).ok());
  VertexPartitioning wrong = parts;
  wrong.assignment.pop_back();
  EXPECT_FALSE(
      ProfileDistDglEpoch(f.graph, wrong, f.split, {10}, 256, 7).ok());
}

TEST(ProfileTest, DeterministicInSeed) {
  Fixture f = SimFixture();
  VertexPartitioning parts = PartitionWith(f, VertexPartitionerId::kLdg, 4);
  auto a = ProfileDistDglEpoch(f.graph, parts, f.split, {15, 10}, 256, 7);
  auto b = ProfileDistDglEpoch(f.graph, parts, f.split, {15, 10}, 256, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->TotalInputVertices(), b->TotalInputVertices());
  EXPECT_EQ(a->TotalRemoteInputVertices(), b->TotalRemoteInputVertices());
}

TEST(ProfileTest, BetterPartitioningFewerRemoteVertices) {
  Fixture f = SimFixture();
  auto random =
      ProfileDistDglEpoch(f.graph,
                          PartitionWith(f, VertexPartitionerId::kRandom, 8),
                          f.split, {15, 10, 5}, 256, 7);
  auto metis =
      ProfileDistDglEpoch(f.graph,
                          PartitionWith(f, VertexPartitionerId::kMetis, 8),
                          f.split, {15, 10, 5}, 256, 7);
  ASSERT_TRUE(random.ok() && metis.ok());
  EXPECT_LT(metis->TotalRemoteInputVertices(),
            random->TotalRemoteInputVertices());
}

TEST(SimulateTest, ReportShapesAndAccounting) {
  Fixture f = SimFixture();
  VertexPartitioning parts = PartitionWith(f, VertexPartitionerId::kLdg, 4);
  auto profile =
      ProfileDistDglEpoch(f.graph, parts, f.split, {15, 10, 5}, 256, 7);
  ASSERT_TRUE(profile.ok());
  ClusterSpec cluster;
  DistDglEpochReport r =
      SimulateDistDglEpoch(*profile, Config(64, 64, 3), cluster);
  EXPECT_GT(r.epoch_seconds, 0);
  EXPECT_NEAR(r.epoch_seconds,
              r.sampling_seconds + r.feature_seconds + r.forward_seconds +
                  r.backward_seconds + r.update_seconds,
              1e-12);
  EXPECT_EQ(r.workers.size(), 4u);
  EXPECT_GE(r.time_balance, 1.0);
  EXPECT_GT(r.total_network_bytes, 0);
  EXPECT_EQ(r.remote_input_vertices, profile->TotalRemoteInputVertices());
  // Straggler-summed phases are at least any single worker's share.
  EXPECT_GE(r.sampling_seconds, r.workers[0].sampling_seconds / 4);
}

TEST(SimulateTest, GoodPartitioningIsFaster) {
  Fixture f = SimFixture();
  ClusterSpec cluster;
  GnnConfig config = Config(512, 64, 3);  // communication-heavy
  auto t = [&](VertexPartitionerId id) {
    auto profile = ProfileDistDglEpoch(
        f.graph, PartitionWith(f, id, 8), f.split, {15, 10, 5}, 256, 7);
    EXPECT_TRUE(profile.ok());
    return SimulateDistDglEpoch(*profile, config, cluster).epoch_seconds;
  };
  EXPECT_LT(t(VertexPartitionerId::kMetis), t(VertexPartitionerId::kRandom));
}

TEST(SimulateTest, LargeFeaturesMakeFetchDominant) {
  // Paper Fig. 19a: for feature size 512 fetching dominates sampling; for
  // small features sampling dominates.
  Fixture f = SimFixture();
  VertexPartitioning parts = PartitionWith(f, VertexPartitionerId::kRandom, 4);
  auto profile =
      ProfileDistDglEpoch(f.graph, parts, f.split, {15, 10, 5}, 256, 7);
  ASSERT_TRUE(profile.ok());
  ClusterSpec cluster;
  DistDglEpochReport small =
      SimulateDistDglEpoch(*profile, Config(16, 64, 3), cluster);
  DistDglEpochReport large =
      SimulateDistDglEpoch(*profile, Config(512, 64, 3), cluster);
  EXPECT_GT(small.sampling_seconds, small.feature_seconds);
  EXPECT_GT(large.feature_seconds, large.sampling_seconds);
  // Sampling time does not depend on the feature size.
  EXPECT_NEAR(small.sampling_seconds, large.sampling_seconds, 1e-9);
}

TEST(SimulateTest, LargerHiddenDimShiftsTimeToCompute) {
  // Paper: hidden dimension raises compute share, lowering partitioner
  // effectiveness.
  Fixture f = SimFixture();
  VertexPartitioning parts = PartitionWith(f, VertexPartitionerId::kRandom, 4);
  auto profile =
      ProfileDistDglEpoch(f.graph, parts, f.split, {15, 10, 5}, 256, 7);
  ASSERT_TRUE(profile.ok());
  ClusterSpec cluster;
  DistDglEpochReport h16 =
      SimulateDistDglEpoch(*profile, Config(64, 16, 3), cluster);
  DistDglEpochReport h512 =
      SimulateDistDglEpoch(*profile, Config(64, 512, 3), cluster);
  double share16 = (h16.forward_seconds + h16.backward_seconds) /
                   h16.epoch_seconds;
  double share512 = (h512.forward_seconds + h512.backward_seconds) /
                    h512.epoch_seconds;
  EXPECT_GT(share512, share16);
  EXPECT_NEAR(h16.sampling_seconds, h512.sampling_seconds, 1e-9);
  EXPECT_NEAR(h16.feature_seconds, h512.feature_seconds, 1e-9);
}

TEST(SimulateTest, GatCostsMoreThanSage) {
  Fixture f = SimFixture();
  VertexPartitioning parts = PartitionWith(f, VertexPartitionerId::kRandom, 4);
  auto profile =
      ProfileDistDglEpoch(f.graph, parts, f.split, {15, 10, 5}, 256, 7);
  ASSERT_TRUE(profile.ok());
  ClusterSpec cluster;
  DistDglEpochReport sage = SimulateDistDglEpoch(
      *profile, Config(64, 64, 3, GnnArchitecture::kGraphSage), cluster);
  DistDglEpochReport gat = SimulateDistDglEpoch(
      *profile, Config(64, 64, 3, GnnArchitecture::kGat), cluster);
  // GAT pays for attention in aggregation; GraphSage pays double dense
  // transforms. At these dims the attention term dominates.
  EXPECT_NE(gat.epoch_seconds, sage.epoch_seconds);
}

TEST(SimulateTest, BatchOverlapReducesRemoteShare) {
  // Paper Fig. 26: with larger batches, remote vertices in % of Random
  // decrease because of overlap within a batch.
  Fixture f = SimFixture();
  VertexPartitioning metis = PartitionWith(f, VertexPartitionerId::kMetis, 8);
  VertexPartitioning random =
      PartitionWith(f, VertexPartitionerId::kRandom, 8);
  // Short fan-outs keep the batches well below graph saturation (at this
  // unit-test scale a 15/10/5 batch covers most of the graph, which
  // flattens all locality differences; the full-scale sweep lives in
  // `bench_study fig26`).
  auto remote_ratio = [&](size_t gbs) {
    auto pm = ProfileDistDglEpoch(f.graph, metis, f.split, {5, 5}, gbs, 7);
    auto pr = ProfileDistDglEpoch(f.graph, random, f.split, {5, 5}, gbs, 7);
    EXPECT_TRUE(pm.ok() && pr.ok());
    return static_cast<double>(pm->TotalRemoteInputVertices()) /
           static_cast<double>(pr->TotalRemoteInputVertices());
  };
  EXPECT_LT(remote_ratio(512), remote_ratio(64) + 0.03);
}

}  // namespace
}  // namespace gnnpart
