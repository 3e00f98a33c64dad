#ifndef GNNPART_TESTS_SPINNER_ORACLE_H_
#define GNNPART_TESTS_SPINNER_ORACLE_H_

#include "partition/partitioning.h"

namespace gnnpart {
namespace oracle {

/// Reference Spinner: same contract as SpinnerPartitioner::Partition
/// (spinner.h) with its default parameters, computed by rebuilding each
/// vertex's per-partition neighbour counts from its neighbourhood on every
/// visit. Slow, simple, and the bit-exact definition the count-row engine
/// must reproduce; it records the same `partition/vertex/Spinner/*`
/// counters.
Result<VertexPartitioning> SpinnerPartition(const Graph& graph, PartitionId k,
                                            uint64_t seed);

}  // namespace oracle
}  // namespace gnnpart

#endif  // GNNPART_TESTS_SPINNER_ORACLE_H_
