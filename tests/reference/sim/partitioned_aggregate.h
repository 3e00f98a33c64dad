#ifndef GNNPART_SIM_PARTITIONED_AGGREGATE_H_
#define GNNPART_SIM_PARTITIONED_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "gnn/tensor.h"
#include "graph/graph.h"
#include "partition/partitioning.h"

namespace gnnpart {

/// Executable model of DistGNN's vertex-cut aggregation: every machine
/// aggregates over its *local* edges into partial sums for the vertices it
/// covers, then replicated vertices synchronize (sum) their partials, and
/// finally the global degree normalizes the result.
///
/// PartitionedMeanAggregate computes exactly this, partition by partition,
/// and must equal MeanAggregate(graph, in) bit-for-bit up to float
/// associativity — the equivalence test that justifies charging the
/// simulator's sync volume as 'state per replicated vertex per layer'.
struct PartitionedAggregateResult {
  Matrix aggregated;  // |V| x d, equals MeanAggregate(graph, in)
  /// Number of (vertex, partition) partial sums that had to cross the
  /// network: sum over replicated vertices of (replicas - 1).
  uint64_t synced_partials = 0;
  /// Bytes shipped for the synchronization at this dimension.
  double synced_bytes = 0;
};

/// An edge whose partition is not covered by the replica mask of one of its
/// endpoints is Internal, naming the edge and the partition.
Result<PartitionedAggregateResult> PartitionedMeanAggregate(
    const Graph& graph, const EdgePartitioning& parts, const Matrix& in);

}  // namespace gnnpart

#endif  // GNNPART_SIM_PARTITIONED_AGGREGATE_H_
