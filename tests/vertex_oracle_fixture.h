#ifndef GNNPART_TESTS_VERTEX_ORACLE_FIXTURE_H_
#define GNNPART_TESTS_VERTEX_ORACLE_FIXTURE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "partition/partitioning.h"

// Shared by the vertex-partitioner oracle tests: the graphs they diff their
// engines on (power-law, road lattice, fragmented, tiny) and a runner that
// returns an engine's assignment with its counter increments.

namespace gnnpart {

struct GraphCase {
  std::string name;
  Graph graph;
};

/// Three disconnected pieces (a power-law block, a ring and a star) plus
/// isolated vertices between and after them.
inline Graph FragmentedGraph() {
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

/// Below every coarsening threshold (16*k >= 32 > n): the multilevel engine
/// goes straight to initial partitioning of the input graph.
inline Graph TinyGraph() {
  Result<Graph> g = GenerateErdosRenyi(30, 70, /*directed=*/false, 11);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

inline std::vector<GraphCase> OracleGraphs() {
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

inline uint64_t CounterValue(const std::string& name) {
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (row.name == name) return row.value;
  }
  return 0;
}

/// Runs `engine` and returns its assignment plus the increments of
/// `counters` over the call.
template <typename Engine>
std::pair<std::vector<PartitionId>, std::vector<uint64_t>> RunCounted(
    const std::vector<std::string>& counters, Engine engine) {
  std::vector<uint64_t> before;
  for (const std::string& name : counters) before.push_back(CounterValue(name));
  Result<VertexPartitioning> parts = engine();
  EXPECT_TRUE(parts.ok()) << parts.status();
  std::vector<uint64_t> delta;
  for (size_t i = 0; i < counters.size(); ++i) {
    delta.push_back(CounterValue(counters[i]) - before[i]);
  }
  return {parts.ok() ? parts->assignment : std::vector<PartitionId>{},
          delta};
}

}  // namespace gnnpart

#endif  // GNNPART_TESTS_VERTEX_ORACLE_FIXTURE_H_
