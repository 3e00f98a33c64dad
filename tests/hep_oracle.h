#ifndef GNNPART_TESTS_HEP_ORACLE_H_
#define GNNPART_TESTS_HEP_ORACLE_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace gnnpart {
namespace oracle {

/// Reference HEP: same contract as HepPartitioner(tau, alpha, lambda)'s
/// PartitionStream (partition/edge/hep.h), computed on a full incidence list
/// (every stream edge twice, as 16-byte (neighbour, edge) entries) that
/// reads the assignment of each edge it scores, with the pop-time rescore
/// of the original code, and a streaming tail that scores every uncapped
/// partition for every edge. Slow, simple, and the bit-exact definition the
/// low-low CSR engine and the replica-class tail must reproduce. Publishes
/// the same four partition/edge/HEP<tau>/ counters.
Status HepPartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                          PartitionId k, double tau, double alpha,
                          double lambda, Rng* rng,
                          std::vector<PartitionId>* assignment);

}  // namespace oracle
}  // namespace gnnpart

#endif  // GNNPART_TESTS_HEP_ORACLE_H_
