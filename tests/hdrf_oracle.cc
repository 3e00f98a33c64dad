// The HDRF loop as it was before the replica-class rewrite, kept as the
// bit-exact oracle of tests/partition_hdrf_oracle_test.cc.
#include "hdrf_oracle.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.h"

namespace gnnpart {
namespace oracle {

Status HdrfPartitionStream(const Graph& graph,
                           const std::vector<EdgeId>& stream, PartitionId k,
                           double lambda, double epsilon,
                           std::vector<PartitionId>* assignment) {
  if (!std::isfinite(lambda) || lambda < 0) {
    return Status::InvalidArgument("HDRF: lambda must be finite and >= 0");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0) {
    return Status::InvalidArgument("HDRF: epsilon must be finite and > 0");
  }
  const size_t n = graph.num_vertices();

  std::vector<uint64_t> replicas(n, 0);        // partition bitmask per vertex
  std::vector<uint32_t> partial_degree(n, 0);  // degree seen so far
  std::vector<uint64_t> load(k, 0);            // edges per partition
  uint64_t max_load = 0;
  uint64_t min_load = 0;

  const auto& edges = graph.edges();
  uint64_t score_evals = 0;
  for (EdgeId e : stream) {
    VertexId u = edges[e].src;
    VertexId v = edges[e].dst;
    ++partial_degree[u];
    ++partial_degree[v];
    double du = partial_degree[u];
    double dv = partial_degree[v];
    double theta_u = du / (du + dv);
    double theta_v = 1.0 - theta_u;

    PartitionId best = 0;
    double best_score = -1.0;
    uint64_t best_load = ~0ULL;
    double denom = epsilon + static_cast<double>(max_load - min_load);
    score_evals += k;
    for (PartitionId p = 0; p < k; ++p) {
      double g = 0;
      if (replicas[u] & (1ULL << p)) g += 1.0 + (1.0 - theta_u);
      if (replicas[v] & (1ULL << p)) g += 1.0 + (1.0 - theta_v);
      double bal = lambda * static_cast<double>(max_load - load[p]) / denom;
      double score = g + bal;
      if (score > best_score ||
          (score == best_score && load[p] < best_load)) {
        best_score = score;
        best = p;
        best_load = load[p];
      }
    }
    (*assignment)[e] = best;
    replicas[u] |= 1ULL << best;
    replicas[v] |= 1ULL << best;
    ++load[best];
    max_load = std::max(max_load, load[best]);
    min_load = *std::min_element(load.begin(), load.end());
  }
  obs::Count("partition/edge/HDRF/edges_assigned", stream.size(), "edges");
  obs::Count("partition/edge/HDRF/score_evals", score_evals, "evals");
  return Status::Ok();
}

}  // namespace oracle
}  // namespace gnnpart
