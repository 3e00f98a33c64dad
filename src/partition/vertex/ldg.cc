#include "partition/vertex/ldg.h"

#include "obs/metrics.h"
#include "partition/vertex/streaming.h"

namespace gnnpart {

Result<VertexPartitioning> LdgPartitioner::Partition(const Graph& graph,
                                                     const VertexSplit& split,
                                                     PartitionId k,
                                                     uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
  const size_t n = graph.num_vertices();
  const LdgObjective objective{slack_ * static_cast<double>(n) /
                               static_cast<double>(k)};
  uint64_t score_evals = 0;  // accumulated locally, published once below
  VertexPartitioning result =
      StreamVertices(graph, k, seed, /*passes=*/1, objective, &score_evals);
  obs::Count("partition/vertex/" + name() + "/vertices_assigned", n,
             "vertices");
  obs::Count("partition/vertex/" + name() + "/score_evals", score_evals,
             "evals");
  return result;
}

}  // namespace gnnpart
