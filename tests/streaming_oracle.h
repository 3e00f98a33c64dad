#ifndef GNNPART_TESTS_STREAMING_ORACLE_H_
#define GNNPART_TESTS_STREAMING_ORACLE_H_

#include <cstdint>
#include <vector>

#include "partition/partitioning.h"

namespace gnnpart {
namespace oracle {

// Reference streaming vertex partitioners: the same contracts as
// LdgPartitioner, ReldgPartitioner and FennelPartitioner (ldg.h, reldg.h,
// fennel.h) with their default parameters, each written out as its own
// count-score-pick loop. They record the same `partition/vertex/<name>/*`
// counters. Arguments are assumed valid apart from the prior, which the
// Repartition references check with the engines' messages.

Result<VertexPartitioning> LdgPartition(const Graph& graph, PartitionId k,
                                        uint64_t seed);

Result<VertexPartitioning> ReldgPartition(const Graph& graph, PartitionId k,
                                          uint64_t seed, int passes);

Result<VertexPartitioning> ReldgRepartition(
    const Graph& graph, PartitionId k, uint64_t seed,
    const std::vector<PartitionId>& prior, double stay_bonus, int max_passes,
    uint64_t* last_pass_moves);

Result<VertexPartitioning> FennelPartition(const Graph& graph, PartitionId k,
                                           uint64_t seed);

Result<VertexPartitioning> FennelRepartition(
    const Graph& graph, PartitionId k, uint64_t seed,
    const std::vector<PartitionId>& prior, double stay_bonus, int max_passes,
    uint64_t* last_pass_moves);

}  // namespace oracle
}  // namespace gnnpart

#endif  // GNNPART_TESTS_STREAMING_ORACLE_H_
