// Differential test of the flat-array (CSR) multilevel engine against the
// vector-of-vectors, hash-map engine it replaced (tests/multilevel_oracle.*):
// the Metis-like and KaHIP-like parameter sets must give equal assignments
// and equal work counters on power-law, road, fragmented and tiny graphs.
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "multilevel_oracle.h"
#include "obs/metrics.h"
#include "partition/vertex/multilevel.h"
#include "partition/vertex/registry.h"

namespace gnnpart {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

/// Three disconnected pieces (a power-law block, a ring and a star) plus
/// isolated vertices between and after them.
Graph FragmentedGraph() {
  constexpr size_t kN = 700;
  GraphBuilder builder(kN, /*directed=*/false);
  Rng rng(5);
  for (int i = 0; i < 1500; ++i) {  // dense block on [0, 300)
    const VertexId a = static_cast<VertexId>(rng.NextBounded(300));
    const VertexId b = static_cast<VertexId>(rng.NextBounded(1 + a % 60));
    builder.AddEdge(a, b);
  }
  for (VertexId v = 350; v < 550; ++v) {  // ring on [350, 550)
    builder.AddEdge(v, v + 1 == 550 ? 350 : v + 1);
  }
  for (VertexId v = 601; v < 680; ++v) builder.AddEdge(600, v);  // star
  Result<Graph> g = builder.Build("fragmented");
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

/// Below every coarsening threshold (16*k >= 32 > n): the engine goes
/// straight to initial partitioning of the input graph.
Graph TinyGraph() {
  Result<Graph> g = GenerateErdosRenyi(30, 70, /*directed=*/false, 11);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<GraphCase> Graphs() {
  std::vector<GraphCase> cases;
  Result<Graph> orkut = MakeDataset(DatasetId::kOrkut, 0.05, 3);
  EXPECT_TRUE(orkut.ok()) << orkut.status();
  cases.push_back({"OR", std::move(orkut).value()});
  RoadParams road;
  road.width = 40;
  road.height = 30;
  road.directed = false;
  Result<Graph> lattice = GenerateRoadNetwork(road, 7);
  EXPECT_TRUE(lattice.ok()) << lattice.status();
  cases.push_back({"road", std::move(lattice).value()});
  cases.push_back({"fragmented", FragmentedGraph()});
  cases.push_back({"tiny", TinyGraph()});
  return cases;
}

/// The parameter sets of MetisLikePartitioner and KahipLikePartitioner
/// (metis_like.h); SameParamsAsThePartitioners pins them.
MultilevelParams MetisParams() {
  MultilevelParams p;
  p.refine_passes = 4;
  p.v_cycles = 1;
  p.initial_tries = 8;
  p.imbalance = 1.05;
  return p;
}

MultilevelParams KahipParams() {
  MultilevelParams p;
  p.refine_passes = 10;
  p.v_cycles = 6;
  p.initial_tries = 12;
  p.imbalance = 1.03;
  return p;
}

uint64_t CounterValue(const std::string& name) {
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (row.name == name) return row.value;
  }
  return 0;
}

constexpr const char* kCounters[] = {
    "partition/vertex/multilevel/coarsen_levels",
    "partition/vertex/multilevel/refine_moves",
    "partition/vertex/multilevel/refine_passes",
};

/// Runs `engine` and returns its assignment plus the counter increments.
template <typename Engine>
std::pair<std::vector<PartitionId>, std::vector<uint64_t>> RunCounted(
    Engine engine) {
  std::vector<uint64_t> before;
  for (const char* name : kCounters) before.push_back(CounterValue(name));
  Result<VertexPartitioning> parts = engine();
  EXPECT_TRUE(parts.ok()) << parts.status();
  std::vector<uint64_t> delta;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    delta.push_back(CounterValue(kCounters[i]) - before[i]);
  }
  return {parts.ok() ? parts->assignment : std::vector<PartitionId>{},
          delta};
}

void ExpectEnginesAgree(const MultilevelParams& params,
                        const std::string& label) {
  for (const GraphCase& gc : Graphs()) {
    for (PartitionId k : {2u, 4u, 32u}) {
      for (uint64_t seed : {1u, 42u, 977u}) {
        SCOPED_TRACE(label + " " + gc.name + " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        auto [flat, flat_counts] = RunCounted(
            [&] { return MultilevelPartition(gc.graph, k, seed, params); });
        auto [ref, ref_counts] = RunCounted([&] {
          return oracle::MultilevelPartition(gc.graph, k, seed, params);
        });
        EXPECT_EQ(flat, ref);
        EXPECT_EQ(flat_counts, ref_counts);
      }
    }
  }
}

TEST(MultilevelOracleTest, MetisLikeMatchesHashMapEngineBitwise) {
  ExpectEnginesAgree(MetisParams(), "Metis");
}

TEST(MultilevelOracleTest, KahipLikeMatchesHashMapEngineBitwise) {
  ExpectEnginesAgree(KahipParams(), "KaHIP");
}

TEST(MultilevelOracleTest, SameParamsAsThePartitioners) {
  const Graph graph = FragmentedGraph();
  const VertexSplit split =
      VertexSplit::MakeRandom(graph.num_vertices(), 0.1, 0.1, 1);
  const std::pair<VertexPartitionerId, MultilevelParams> cases[] = {
      {VertexPartitionerId::kMetis, MetisParams()},
      {VertexPartitionerId::kKahip, KahipParams()}};
  for (const auto& [id, params] : cases) {
    Result<VertexPartitioning> via_partitioner =
        MakeVertexPartitioner(id)->Partition(graph, split, 4, 9);
    Result<VertexPartitioning> direct =
        MultilevelPartition(graph, 4, 9, params);
    ASSERT_TRUE(via_partitioner.ok() && direct.ok());
    EXPECT_EQ(via_partitioner->assignment, direct->assignment);
  }
}

TEST(MultilevelOracleTest, RefineScannedCountsEveryAdjacencyEntryPerPass) {
  // Below the coarsening threshold every refinement runs on the input
  // graph, so each pass reads all 2|E| adjacency entries.
  const Graph graph = TinyGraph();
  uint64_t entries = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    entries += graph.Degree(v);
  }
  const uint64_t passes =
      CounterValue("partition/vertex/multilevel/refine_passes");
  const uint64_t scanned =
      CounterValue("partition/vertex/multilevel/refine_scanned");
  ASSERT_TRUE(MultilevelPartition(graph, 4, 3, MetisParams()).ok());
  const uint64_t ran =
      CounterValue("partition/vertex/multilevel/refine_passes") - passes;
  EXPECT_GT(ran, 0u);
  EXPECT_EQ(CounterValue("partition/vertex/multilevel/refine_scanned") -
                scanned,
            ran * entries);
}

}  // namespace
}  // namespace gnnpart
