#include "partition/vertex/fennel.h"

#include <cmath>

#include "obs/metrics.h"
#include "partition/vertex/streaming.h"

namespace gnnpart {
namespace {

FennelObjective Objective(const Graph& graph, PartitionId k, double gamma,
                          double load_slack) {
  const double n = static_cast<double>(graph.num_vertices());
  const double m = static_cast<double>(graph.num_edges());
  // Fennel's alpha: m * k^(gamma-1) / n^gamma.
  const double alpha = m * std::pow(static_cast<double>(k), gamma - 1.0) /
                       std::pow(n, gamma);
  return {alpha * gamma, gamma, load_slack * n / static_cast<double>(k)};
}

}  // namespace

Result<VertexPartitioning> FennelPartitioner::Partition(
    const Graph& graph, const VertexSplit& split, PartitionId k,
    uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
  uint64_t score_evals = 0;  // accumulated locally, published once below
  VertexPartitioning result =
      StreamVertices(graph, k, seed, /*passes=*/1,
                     Objective(graph, k, gamma_, load_slack_), &score_evals);
  obs::Count("partition/vertex/" + name() + "/vertices_assigned",
             graph.num_vertices(), "vertices");
  obs::Count("partition/vertex/" + name() + "/score_evals", score_evals,
             "evals");
  return result;
}

Result<VertexPartitioning> FennelPartitioner::Repartition(
    const Graph& graph, const VertexSplit& split, PartitionId k, uint64_t seed,
    const std::vector<PartitionId>& prior, double stay_bonus, int max_passes,
    uint64_t* last_pass_moves) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
  return RestreamVertices(graph, k, seed, prior, stay_bonus, max_passes,
                          Objective(graph, k, gamma_, load_slack_), name(),
                          last_pass_moves);
}

}  // namespace gnnpart
