#include "metrics/partition_metrics.h"

#include <bit>
#include <sstream>

#include "common/parallel.h"
#include "common/stats.h"

namespace gnnpart {
namespace {

std::vector<double> ToDoubles(const std::vector<uint64_t>& v) {
  return std::vector<double>(v.begin(), v.end());
}

}  // namespace

std::string EdgePartitionMetrics::ToString() const {
  std::ostringstream os;
  os << "RF=" << replication_factor << " EB=" << edge_balance
     << " VB=" << vertex_balance;
  return os.str();
}

std::string VertexPartitionMetrics::ToString() const {
  std::ostringstream os;
  os << "lambda=" << edge_cut_ratio << " VB=" << vertex_balance
     << " TVB=" << train_vertex_balance;
  return os.str();
}

EdgePartitionMetrics ComputeEdgePartitionMetrics(
    const Graph& graph, const EdgePartitioning& parts) {
  EdgePartitionMetrics m;
  m.edges_per_partition = parts.EdgeCounts();

  // One fold over the masks. A partition's synced vertices are its covered
  // vertices minus those it holds alone, which costs one increment per
  // vertex instead of one per replica.
  m.vertices_per_partition.assign(parts.k, 0);
  std::vector<uint64_t> alone(parts.k, 0);
  uint64_t covered = 0;
  for (uint64_t mask : ComputeReplicaMasks(graph, parts)) {
    if (mask == 0) continue;
    const int replicas = std::popcount(mask);
    covered += static_cast<uint64_t>(replicas);
    m.total_replicas += static_cast<uint64_t>(replicas - 1);
    if (replicas == 1) ++alone[static_cast<size_t>(std::countr_zero(mask))];
    for (; mask != 0; mask &= mask - 1) {
      ++m.vertices_per_partition[static_cast<size_t>(std::countr_zero(mask))];
    }
  }
  m.synced_vertices_per_partition.resize(parts.k);
  for (size_t p = 0; p < parts.k; ++p) {
    m.synced_vertices_per_partition[p] = m.vertices_per_partition[p] - alone[p];
  }
  // The paper normalizes by |V|; isolated vertices (none at our scales
  // after dedup) would dilute RF identically for every partitioner.
  double denom = static_cast<double>(graph.num_vertices());
  m.replication_factor =
      denom > 0 ? static_cast<double>(covered) / denom : 0;
  m.edge_balance = MaxOverMean(ToDoubles(m.edges_per_partition));
  m.vertex_balance = MaxOverMean(ToDoubles(m.vertices_per_partition));
  return m;
}

VertexPartitionMetrics ComputeVertexPartitionMetrics(
    const Graph& graph, const VertexPartitioning& parts,
    const VertexSplit& split) {
  VertexPartitionMetrics m;
  m.vertices_per_partition = parts.VertexCounts();
  m.train_vertices_per_partition.assign(parts.k, 0);
  for (VertexId v : split.train_vertices()) {
    ++m.train_vertices_per_partition[parts.assignment[v]];
  }
  const auto& edges = graph.edges();
  m.cut_edges = ParallelReduce<uint64_t>(
      edges.size(), 16384, 0,
      [&](size_t begin, size_t end, size_t) {
        uint64_t cut = 0;
        for (size_t e = begin; e < end; ++e) {
          if (parts.assignment[edges[e].src] !=
              parts.assignment[edges[e].dst]) {
            ++cut;
          }
        }
        return cut;
      },
      [](uint64_t acc, uint64_t part) { return acc + part; });
  m.edge_cut_ratio =
      graph.num_edges() > 0
          ? static_cast<double>(m.cut_edges) /
                static_cast<double>(graph.num_edges())
          : 0;
  m.vertex_balance = MaxOverMean(ToDoubles(m.vertices_per_partition));
  m.train_vertex_balance =
      MaxOverMean(ToDoubles(m.train_vertices_per_partition));
  return m;
}

}  // namespace gnnpart
