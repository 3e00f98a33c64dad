// Differential test of NeighborSampler::SampleBatch against the chunk-
// parallel sampler it replaced (tests/sampler_oracle.*): for every graph,
// partitioning, fan-out schedule and seed batch, both must give equal
// MiniBatchProfile fields, equal increments of the five
// sampler/neighbor/* counters and leave the caller's RNG in the same state.
// A ParallelSample case (ctest label tsan) runs the kernel on a 4-thread
// pool with samplers reused off the free list.
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "gnn/model_config.h"
#include "graph/split.h"
#include "obs/metrics.h"
#include "partition/vertex/registry.h"
#include "sampler_oracle.h"
#include "sampling/neighbor_sampler.h"

namespace gnnpart {
namespace {

constexpr PartitionId kKs[] = {1, 4, 32};

constexpr const char* kCounters[] = {
    "sampler/neighbor/batches", "sampler/neighbor/sampled_edges",
    "sampler/neighbor/remote_requests",
    "sampler/neighbor/empty_adjacency_skips",
    "sampler/neighbor/revisit_skips"};

uint64_t CounterValue(const std::string& name) {
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (row.name == name) return row.value;
  }
  return 0;
}

std::vector<uint64_t> Counters() {
  std::vector<uint64_t> out;
  for (const char* c : kCounters) out.push_back(CounterValue(c));
  return out;
}

/// A batch's observable result: the profile, the five counter increments
/// and the caller's RNG's next draw (the sampler draws one layer seed per
/// layer from it).
struct Outcome {
  MiniBatchProfile profile;
  std::vector<uint64_t> counters;
  uint64_t rng_after = 0;
};

template <typename Sampler>
Outcome Sample(const Sampler& sampler, std::span<const VertexId> seeds,
            const std::vector<size_t>& fanouts,
            const VertexPartitioning* parts, PartitionId owner,
            uint64_t seed) {
  const std::vector<uint64_t> before = Counters();
  Rng rng(seed);
  Outcome out;
  out.profile = sampler.SampleBatch(seeds, fanouts, parts, owner, &rng);
  out.rng_after = rng.Next();
  const std::vector<uint64_t> after = Counters();
  for (size_t i = 0; i < after.size(); ++i) {
    out.counters.push_back(after[i] - before[i]);
  }
  return out;
}

void ExpectProfilesEqual(const MiniBatchProfile& want,
                         const MiniBatchProfile& got,
                         const std::string& where) {
  EXPECT_EQ(want.seeds, got.seeds) << where;
  EXPECT_EQ(want.input_vertices, got.input_vertices) << where;
  EXPECT_EQ(want.local_input_vertices, got.local_input_vertices) << where;
  EXPECT_EQ(want.remote_input_vertices, got.remote_input_vertices) << where;
  EXPECT_EQ(want.computation_edges, got.computation_edges) << where;
  EXPECT_EQ(want.remote_sampling_requests, got.remote_sampling_requests)
      << where;
  EXPECT_EQ(want.frontier_sizes, got.frontier_sizes) << where;
  EXPECT_EQ(want.hop_edges, got.hop_edges) << where;
}

struct GraphCase {
  std::string name;
  Graph graph;
};

/// A hub (vertex 3) of degree 150 with a path hanging off one leaf, and
/// isolated vertices before, between and after them: frontiers reach empty
/// adjacency lists, and fan-outs below 150 take the Fisher-Yates path.
Graph HubWithIsolated() {
  GraphBuilder builder(400, /*directed=*/false);
  for (VertexId leaf = 10; leaf < 160; ++leaf) builder.AddEdge(3, leaf);
  for (VertexId v = 159; v < 180; ++v) builder.AddEdge(v, v + 1);
  builder.AddEdge(250, 251);
  builder.AddEdge(251, 252);
  builder.AddEdge(252, 250);
  Result<Graph> g = builder.Build("hub");
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

/// OR at scale 0.05 (1,200 vertices of mean degree 25: DefaultFanouts
/// layers mostly sample without replacement, and later frontiers span
/// several 256-vertex chunks), a road lattice (degree <= 8: every
/// DefaultFanouts layer takes whole neighbourhoods) and the hub with
/// isolated vertices.
std::vector<GraphCase> Graphs() {
  std::vector<GraphCase> out;
  Result<Graph> orkut = MakeDataset(DatasetId::kOrkut, 0.05, 3);
  EXPECT_TRUE(orkut.ok()) << orkut.status();
  out.push_back({"OR", std::move(orkut).value()});
  RoadParams rp;
  rp.width = 60;
  rp.height = 50;
  rp.directed = false;
  Result<Graph> road = GenerateRoadNetwork(rp, 5);
  EXPECT_TRUE(road.ok()) << road.status();
  out.push_back({"road", std::move(road).value()});
  out.push_back({"hub", HubWithIsolated()});
  return out;
}

/// The study's three schedules, plus no layer at all (the distinct seeds
/// only), fan-out 0 (draws nothing from a non-empty neighbourhood) and a
/// fan-out above every degree (whole neighbourhoods on every graph), alone
/// and mixed with sampled layers.
std::vector<std::vector<size_t>> Fanouts(const Graph& graph) {
  const size_t above = graph.MaxDegree() + 1;
  return {GnnConfig::DefaultFanouts(2),
          GnnConfig::DefaultFanouts(3),
          GnnConfig::DefaultFanouts(4),
          {},
          {0},
          {0, 5},
          {above},
          {above, 3},
          {2, above, 0}};
}

/// Seed batches: sizes 1 to 300 drawn with replacement (so larger batches
/// repeat seeds), a batch of two seeds repeated, and a batch of the
/// graph's highest-degree vertex twice next to vertex 0.
std::vector<std::vector<VertexId>> Batches(const Graph& graph) {
  std::vector<std::vector<VertexId>> out;
  Rng rng(17);
  for (size_t size : {1, 7, 64, 300}) {
    std::vector<VertexId> seeds;
    for (size_t i = 0; i < size; ++i) {
      seeds.push_back(
          static_cast<VertexId>(rng.NextBounded(graph.num_vertices())));
    }
    out.push_back(std::move(seeds));
  }
  out.push_back({5, 5, 5, 9, 5, 9});
  VertexId hub = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > graph.Degree(hub)) hub = v;
  }
  out.push_back({hub, 0, hub});
  return out;
}

VertexPartitioning Partitioning(const Graph& graph, PartitionId k) {
  const VertexSplit split =
      VertexSplit::MakeRandom(graph.num_vertices(), 0.1, 0.1, 1);
  Result<VertexPartitioning> parts =
      MakeVertexPartitioner(VertexPartitionerId::kLdg)
          ->Partition(graph, split, k, 11);
  EXPECT_TRUE(parts.ok()) << parts.status();
  return std::move(parts).value();
}

TEST(SamplerOracleTest, SampleBatchMatchesOracle) {
  size_t batches = 0;
  for (const GraphCase& gc : Graphs()) {
    // One sampler of each kind per graph, reused for every batch, so the
    // visit stamps and scratch carry over between calls.
    const oracle::NeighborSampler reference(gc.graph);
    const NeighborSampler kernel(gc.graph);
    std::vector<std::optional<VertexPartitioning>> partitionings{
        std::nullopt};
    for (PartitionId k : kKs) {
      partitionings.push_back(Partitioning(gc.graph, k));
    }
    const std::vector<std::vector<VertexId>> all = Batches(gc.graph);
    for (const auto& parts : partitionings) {
      const PartitionId k = parts ? parts->k : 1;
      for (const std::vector<size_t>& fanouts : Fanouts(gc.graph)) {
        for (size_t b = 0; b < all.size(); ++b) {
          const PartitionId owner = static_cast<PartitionId>(b % k);
          const uint64_t seed = 1000 * b + fanouts.size();
          const VertexPartitioning* p = parts ? &*parts : nullptr;
          Outcome want = Sample(reference, all[b], fanouts, p, owner, seed);
          Outcome got = Sample(kernel, all[b], fanouts, p, owner, seed);
          std::string where = gc.name + " k=" +
                              (parts ? std::to_string(k) : "none") +
                              " fanouts=" + testing::PrintToString(fanouts) +
                              " batch=" + std::to_string(b);
          ExpectProfilesEqual(want.profile, got.profile, where);
          EXPECT_EQ(want.counters, got.counters) << where;
          EXPECT_EQ(want.rng_after, got.rng_after) << where;
          ++batches;
        }
      }
    }
  }
  EXPECT_EQ(batches, 3u * 4u * 9u * 6u);
}

// Many batches through ParallelSample on a 4-thread pool: each chunk
// borrows a sampler off the shared free list, so the per-sampler scratch is
// handed between threads. Every batch must equal the oracle's serial
// result.
TEST(SamplerOracleTest, ParallelSampleMatchesSerialOracle) {
  Result<Graph> orkut = MakeDataset(DatasetId::kOrkut, 0.05, 3);
  ASSERT_TRUE(orkut.ok()) << orkut.status();
  const Graph& graph = *orkut;
  const PartitionId k = 4;
  const VertexPartitioning parts = Partitioning(graph, k);
  const std::vector<size_t> fanouts = GnnConfig::DefaultFanouts(3);
  constexpr size_t kBatches = 96;
  auto seeds_of = [&](size_t b) {
    Rng rng(b);
    std::vector<VertexId> seeds(1 + b % 40);
    for (VertexId& v : seeds) {
      v = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
    }
    return seeds;
  };
  auto owner_of = [&](size_t b) { return static_cast<PartitionId>(b % k); };

  std::vector<MiniBatchProfile> want(kBatches);
  const oracle::NeighborSampler reference(graph);
  for (size_t b = 0; b < kBatches; ++b) {
    Rng rng(b);
    want[b] =
        reference.SampleBatch(seeds_of(b), fanouts, &parts, owner_of(b), &rng);
  }

  const int threads = DefaultThreads();
  SetDefaultThreads(4);
  std::vector<MiniBatchProfile> got(kBatches);
  ParallelSample(graph, kBatches, "test/sampler_oracle",
                 [&](const NeighborSampler& sampler, size_t begin,
                     size_t end) {
                   for (size_t b = begin; b < end; ++b) {
                     Rng rng(b);
                     got[b] = sampler.SampleBatch(seeds_of(b), fanouts, &parts,
                                                  owner_of(b), &rng);
                   }
                 });
  SetDefaultThreads(threads);
  for (size_t b = 0; b < kBatches; ++b) {
    ExpectProfilesEqual(want[b], got[b], "batch " + std::to_string(b));
  }
}

}  // namespace
}  // namespace gnnpart
