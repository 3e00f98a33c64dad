// Differential test of Spinner's count-row engine against the loop it
// replaced (tests/spinner_oracle.*), which rebuilds every visited vertex's
// per-partition neighbour counts: equal assignments and equal
// `partition/vertex/Spinner/*` counter increments on power-law, road,
// fragmented and tiny graphs.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/split.h"
#include "partition/vertex/spinner.h"
#include "spinner_oracle.h"
#include "vertex_oracle_fixture.h"

namespace gnnpart {
namespace {

const std::vector<std::string> kCounters = {
    "partition/vertex/Spinner/vertices_assigned",
    "partition/vertex/Spinner/lp_iterations",
    "partition/vertex/Spinner/migrations",
};

TEST(SpinnerOracleTest, MatchesNeighbourScanEngineBitwise) {
  const SpinnerPartitioner spinner;
  for (const GraphCase& gc : OracleGraphs()) {
    const VertexSplit split =
        VertexSplit::MakeRandom(gc.graph.num_vertices(), 0.1, 0.1, 1);
    // k = 7 leaves the loads uneven; k = 64 is kMaxPartitions.
    for (PartitionId k : {2u, 4u, 7u, 32u, 64u}) {
      for (uint64_t seed : {1u, 42u, 977u}) {
        SCOPED_TRACE(gc.name + " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        auto [rows, rows_counts] = RunCounted(kCounters, [&] {
          return spinner.Partition(gc.graph, split, k, seed);
        });
        auto [ref, ref_counts] = RunCounted(kCounters, [&] {
          return oracle::SpinnerPartition(gc.graph, k, seed);
        });
        EXPECT_EQ(rows, ref);
        EXPECT_EQ(rows_counts, ref_counts);
      }
    }
  }
}

}  // namespace
}  // namespace gnnpart
