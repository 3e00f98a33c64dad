#include "partition/edge/hdrf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "partition/edge/replica_classes.h"

namespace gnnpart {

Result<EdgePartitioning> HdrfPartitioner::Partition(const Graph& graph,
                                                    PartitionId k,
                                                    uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, k));
  const size_t m = graph.num_edges();

  EdgePartitioning result;
  result.k = k;
  result.assignment.assign(m, kInvalidPartition);

  // Stream edges in a seed-dependent shuffled order, as a streaming
  // partitioner would receive them from an arbitrary on-disk order.
  std::vector<EdgeId> order(m);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&order);

  GNNPART_RETURN_NOT_OK(
      PartitionStream(graph, order, k, &rng, &result.assignment));
  return result;
}

Status HdrfPartitioner::PartitionStream(
    const Graph& graph, const std::vector<EdgeId>& stream, PartitionId k,
    Rng* /*rng*/, std::vector<PartitionId>* assignment) const {
  // A NaN score loses every comparison and would send every edge to
  // partition 0.
  if (!std::isfinite(lambda_) || lambda_ < 0) {
    return Status::InvalidArgument("HDRF: lambda must be finite and >= 0");
  }
  if (!std::isfinite(epsilon_) || epsilon_ <= 0) {
    return Status::InvalidArgument("HDRF: epsilon must be finite and > 0");
  }
  const size_t n = graph.num_vertices();

  // Streaming state, scoped to this call so concurrent shard instances over
  // disjoint streams are independent.
  std::vector<uint64_t> replicas(n, 0);        // partition bitmask per vertex
  std::vector<uint32_t> partial_degree(n, 0);  // degree seen so far
  std::vector<uint64_t> key(k);  // LoadKey(edges in p, p)
  for (PartitionId p = 0; p < k; ++p) key[p] = LoadKey(0, p);
  uint64_t max_load = 0;

  const auto& edges = graph.edges();
  uint64_t score_evals = 0;  // accumulated locally, published once below
  for (size_t i = 0; i < stream.size(); ++i) {
    const EdgeId e = stream[i];
    const Edge edge = StreamEdge(stream, i, edges.data(), assignment->data(),
                                 replicas.data(), partial_degree.data());
    VertexId u = edge.src;
    VertexId v = edge.dst;
    ++partial_degree[u];
    ++partial_degree[v];
    double du = partial_degree[u];
    double dv = partial_degree[v];
    double theta_u = du / (du + dv);
    double theta_v = 1.0 - theta_u;

    // The best partition is the best class winner (replica_classes.h). The
    // tie rule -- highest score, then lowest load, then lowest index -- is
    // the key order on equal scores. Every partition is in some class, so
    // the least class key is the least load.
    const std::array<uint64_t, 4> min_key =
        MinKeyPerClass(key.data(), k, replicas[u], replicas[v]);
    const uint64_t min_load =
        *std::min_element(min_key.begin(), min_key.end()) >> 6;
    double denom = epsilon_ + static_cast<double>(max_load - min_load);
    double best_score = -1.0;
    uint64_t best_key = kNoKey;
    score_evals += k;
    for (int c = 0; c < 4; ++c) {
      if (min_key[c] == kNoKey) continue;
      double g = 0;
      if (c & kUOnly) g += 1.0 + (1.0 - theta_u);
      if (c & kVOnly) g += 1.0 + (1.0 - theta_v);
      double bal =
          lambda_ * static_cast<double>(max_load - (min_key[c] >> 6)) / denom;
      double score = g + bal;
      if (score > best_score ||
          (score == best_score && min_key[c] < best_key)) {
        best_score = score;
        best_key = min_key[c];
      }
    }
    const PartitionId best = static_cast<PartitionId>(best_key & 63);
    (*assignment)[e] = best;
    replicas[u] |= 1ULL << best;
    replicas[v] |= 1ULL << best;
    key[best] += LoadKey(1, 0);  // one more edge in best
    max_load = std::max(max_load, key[best] >> 6);
  }
  obs::Count("partition/edge/" + name() + "/edges_assigned", stream.size(),
             "edges");
  obs::Count("partition/edge/" + name() + "/score_evals", score_evals,
             "evals");
  return Status::Ok();
}

}  // namespace gnnpart
