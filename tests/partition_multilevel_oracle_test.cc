// Differential test of the flat-array (CSR) multilevel engine against the
// vector-of-vectors, hash-map engine it replaced (tests/multilevel_oracle.*):
// the Metis-like and KaHIP-like parameter sets must give equal assignments
// and equal work counters on power-law, road, fragmented and tiny graphs.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "multilevel_oracle.h"
#include "partition/vertex/multilevel.h"
#include "partition/vertex/registry.h"
#include "vertex_oracle_fixture.h"

namespace gnnpart {
namespace {

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

const std::vector<std::string> kCounters = {
    "partition/vertex/multilevel/coarsen_levels",
    "partition/vertex/multilevel/refine_moves",
    "partition/vertex/multilevel/refine_passes",
};

void ExpectEnginesAgree(const MultilevelParams& params,
                        const std::string& label) {
  for (const GraphCase& gc : OracleGraphs()) {
    // k = 7 leaves the partition weights uneven; k = 64 is kMaxPartitions.
    for (PartitionId k : {2u, 4u, 7u, 32u, 64u}) {
      for (uint64_t seed : {1u, 42u, 977u}) {
        SCOPED_TRACE(label + " " + gc.name + " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        auto [flat, flat_counts] = RunCounted(kCounters, [&] {
          return MultilevelPartition(gc.graph, k, seed, params);
        });
        auto [ref, ref_counts] = RunCounted(kCounters, [&] {
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

TEST(MultilevelOracleTest, RefineScannedCountsBuildsMovesAndTieScans) {
  // Below the coarsening threshold the engine runs one Refine call per
  // initial try (8 for MetisParams), all on the input graph's 126 adjacency
  // entries. The counter is the sum of
  //   * the row builds, one per call: 8 * 126 = 1,008 entries;
  //   * the mover updates: the 405 moves (all by RefinePass, as
  //     refine_moves pins; the rebalancer moves nothing here) read their
  //     movers' neighbourhoods, 1,799 entries;
  //   * the tie scans, which read a mover's neighbours up to the first one
  //     in a tied partition: 61 entries.
  // The last two were read off an instrumented run of this engine. The old
  // meaning, every entry once per pass, would read 115 * 126 = 14,490.
  const Graph graph = TinyGraph();
  uint64_t entries = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    entries += graph.Degree(v);
  }
  ASSERT_EQ(entries, 126u);
  const std::vector<std::string> counters = {
      "partition/vertex/multilevel/refine_passes",
      "partition/vertex/multilevel/refine_moves",
      "partition/vertex/multilevel/refine_scanned"};
  const auto [parts, delta] = RunCounted(counters, [&] {
    return MultilevelPartition(graph, 4, 3, MetisParams());
  });
  EXPECT_EQ(delta[0], 115u);
  EXPECT_EQ(delta[1], 405u);
  EXPECT_EQ(delta[2], 8 * entries + 1799 + 61);
  EXPECT_LT(delta[2], delta[0] * entries);
}

}  // namespace
}  // namespace gnnpart
