#include "partition/partitioning.h"

namespace gnnpart {

std::vector<uint64_t> EdgePartitioning::EdgeCounts() const {
  std::vector<uint64_t> counts(k, 0);
  for (PartitionId p : assignment) ++counts[p];
  return counts;
}

std::vector<uint64_t> VertexPartitioning::VertexCounts() const {
  std::vector<uint64_t> counts(k, 0);
  for (PartitionId p : assignment) ++counts[p];
  return counts;
}

std::vector<uint64_t> ComputeReplicaMasks(const Graph& graph,
                                          const EdgePartitioning& parts) {
  std::vector<uint64_t> masks(graph.num_vertices(), 0);
  const auto& edges = graph.edges();
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const uint64_t bit = 1ULL << parts.assignment[e];
    masks[edges[e].src] |= bit;
    masks[edges[e].dst] |= bit;
  }
  return masks;
}

Status EdgePartitioner::CheckArgs(const Graph& graph, PartitionId k) {
  if (k == 0 || k > kMaxPartitions) {
    return Status::InvalidArgument("k must be in [1, " +
                                   std::to_string(kMaxPartitions) + "]");
  }
  if (graph.num_edges() == 0) {
    return Status::InvalidArgument("cannot partition an empty edge set");
  }
  return Status::Ok();
}

Status VertexPartitioner::CheckArgs(const Graph& graph,
                                    const VertexSplit& split, PartitionId k) {
  if (k == 0 || k > kMaxPartitions) {
    return Status::InvalidArgument("k must be in [1, " +
                                   std::to_string(kMaxPartitions) + "]");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty vertex set");
  }
  if (split.num_vertices() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "vertex split size does not match the graph");
  }
  return Status::Ok();
}

}  // namespace gnnpart
