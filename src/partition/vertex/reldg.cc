#include "partition/vertex/reldg.h"

#include <algorithm>

#include "obs/metrics.h"
#include "partition/vertex/streaming.h"

namespace gnnpart {
namespace {

LdgObjective Objective(const Graph& graph, PartitionId k, double slack) {
  return {slack * static_cast<double>(graph.num_vertices()) /
          static_cast<double>(k)};
}

}  // namespace

Result<VertexPartitioning> ReldgPartitioner::Partition(
    const Graph& graph, const VertexSplit& split, PartitionId k,
    uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
  const size_t n = graph.num_vertices();
  uint64_t score_evals = 0;  // ReLDG publishes placements instead
  VertexPartitioning result = StreamVertices(
      graph, k, seed, passes_, Objective(graph, k, slack_), &score_evals);
  const uint64_t placements =
      static_cast<uint64_t>(std::max(passes_, 0)) * n;
  obs::Count("partition/vertex/" + name() + "/vertices_assigned", n,
             "vertices");
  obs::Count("partition/vertex/" + name() + "/placements", placements,
             "placements");
  obs::Count("partition/vertex/" + name() + "/passes",
             static_cast<uint64_t>(passes_), "passes");
  return result;
}

Result<VertexPartitioning> ReldgPartitioner::Repartition(
    const Graph& graph, const VertexSplit& split, PartitionId k, uint64_t seed,
    const std::vector<PartitionId>& prior, double stay_bonus, int max_passes,
    uint64_t* last_pass_moves) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
  return RestreamVertices(graph, k, seed, prior, stay_bonus, max_passes,
                          Objective(graph, k, slack_), name(),
                          last_pass_moves);
}

}  // namespace gnnpart
