#ifndef GNNPART_TESTS_MULTILEVEL_ORACLE_H_
#define GNNPART_TESTS_MULTILEVEL_ORACLE_H_

#include "partition/vertex/multilevel.h"

namespace gnnpart {
namespace oracle {

/// Reference multilevel engine: same contract as gnnpart::MultilevelPartition
/// (multilevel.h), computed on a vector-of-vectors adjacency with hash-map
/// clustering and contraction. Slow, simple, and the bit-exact definition
/// the flat-array engine must reproduce.
Result<VertexPartitioning> MultilevelPartition(const Graph& graph,
                                               PartitionId k, uint64_t seed,
                                               const MultilevelParams& params);

}  // namespace oracle
}  // namespace gnnpart

#endif  // GNNPART_TESTS_MULTILEVEL_ORACLE_H_
