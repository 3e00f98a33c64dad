#include "sim/partitioned_aggregate.h"

#include <bit>
#include <string>

namespace gnnpart {

Result<PartitionedAggregateResult> PartitionedMeanAggregate(
    const Graph& graph, const EdgePartitioning& parts, const Matrix& in) {
  const size_t n = graph.num_vertices();
  const size_t d = in.cols();
  PartitionedAggregateResult result;
  result.aggregated = Matrix(n, d);

  // Phase 1 (local compute): each machine p scans its own edges and adds
  // both endpoints' contributions into the partial-sum rows of the
  // vertices it covers. Executed machine-by-machine; the accumulation
  // order per vertex therefore matches what a real deployment produces
  // after the sync sums the partials.
  std::vector<Matrix> partial(parts.k);
  std::vector<std::vector<uint32_t>> local_index(parts.k);
  std::vector<uint32_t> sizes(parts.k, 0);

  // Covered-vertex masks to size the per-machine partial buffers.
  std::vector<uint64_t> masks = ComputeReplicaMasks(graph, parts);
  for (PartitionId p = 0; p < parts.k; ++p) {
    local_index[p].assign(n, UINT32_MAX);
  }
  // Rows only for partitions below k; an edge on any other is reported
  // below.
  const uint64_t in_range =
      parts.k >= 64 ? ~uint64_t{0} : (uint64_t{1} << parts.k) - 1;
  for (VertexId v = 0; v < n; ++v) {
    uint64_t mask = masks[v] & in_range;
    while (mask) {
      PartitionId p = static_cast<PartitionId>(std::countr_zero(mask));
      local_index[p][v] = sizes[p]++;
      mask &= mask - 1;
    }
  }
  for (PartitionId p = 0; p < parts.k; ++p) {
    partial[p] = Matrix(sizes[p], d);
  }

  const auto& edges = graph.edges();
  for (EdgeId e = 0; e < edges.size(); ++e) {
    PartitionId p = parts.assignment[e];
    VertexId u = edges[e].src;
    VertexId v = edges[e].dst;
    // A partial row exists only where the replica mask says so; an edge
    // outside it is reported here rather than read out of bounds.
    const std::string where = "edge " + std::to_string(e) + " (" +
                              std::to_string(u) + ", " + std::to_string(v) +
                              ") on partition " + std::to_string(p);
    if (p >= parts.k) {
      return Status::Internal(where + ": partition out of range for k = " +
                              std::to_string(parts.k));
    }
    for (VertexId w : {u, v}) {
      if (((masks[w] >> p) & 1) == 0) {
        return Status::Internal(where + ": the replica mask of vertex " +
                                std::to_string(w) +
                                " does not cover the partition");
      }
    }
    float* urow = partial[p].Row(local_index[p][u]);
    float* vrow = partial[p].Row(local_index[p][v]);
    const float* uin = in.Row(u);
    const float* vin = in.Row(v);
    for (size_t c = 0; c < d; ++c) {
      urow[c] += vin[c];
      vrow[c] += uin[c];
    }
  }

  // Phase 2 (sync): replicated vertices sum their partials across the
  // machines that cover them; every non-owner partial crosses the network.
  for (VertexId v = 0; v < n; ++v) {
    uint64_t mask = masks[v];
    int replicas = std::popcount(mask);
    if (replicas == 0) continue;
    float* out = result.aggregated.Row(v);
    while (mask) {
      PartitionId p = static_cast<PartitionId>(std::countr_zero(mask));
      const float* row = partial[p].Row(local_index[p][v]);
      for (size_t c = 0; c < d; ++c) out[c] += row[c];
      mask &= mask - 1;
    }
    result.synced_partials += static_cast<uint64_t>(replicas - 1);
    // Phase 3 (normalize): divide by the global degree.
    float inv = 1.0f / static_cast<float>(graph.Degree(v));
    for (size_t c = 0; c < d; ++c) out[c] *= inv;
  }
  result.synced_bytes = static_cast<double>(result.synced_partials) *
                        static_cast<double>(d) * sizeof(float);
  return result;
}

}  // namespace gnnpart
