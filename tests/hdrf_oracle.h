#ifndef GNNPART_TESTS_HDRF_ORACLE_H_
#define GNNPART_TESTS_HDRF_ORACLE_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace gnnpart {
namespace oracle {

/// Reference HDRF: same contract as HdrfPartitioner(lambda, epsilon)'s
/// PartitionStream (partition/edge/hdrf.h), scoring every one of the k
/// partitions for every edge and rescanning all loads for the minimum. Slow,
/// simple, and the bit-exact definition the replica-class engine must
/// reproduce. Publishes the same two partition/edge/HDRF/ counters.
Status HdrfPartitionStream(const Graph& graph,
                           const std::vector<EdgeId>& stream, PartitionId k,
                           double lambda, double epsilon,
                           std::vector<PartitionId>* assignment);

}  // namespace oracle
}  // namespace gnnpart

#endif  // GNNPART_TESTS_HDRF_ORACLE_H_
