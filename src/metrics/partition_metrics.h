#ifndef GNNPART_METRICS_PARTITION_METRICS_H_
#define GNNPART_METRICS_PARTITION_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/split.h"
#include "partition/partitioning.h"

namespace gnnpart {

/// Quality metrics of a vertex-cut (edge) partitioning, paper Section 2.1.
struct EdgePartitionMetrics {
  /// Mean replication factor RF(P) = (1/|V|) * sum_i |V(p_i)|.
  double replication_factor = 0;
  /// max(|p_i|) / mean(|p_i|) over partition edge counts.
  double edge_balance = 0;
  /// max(|V(p_i)|) / mean(|V(p_i)|) over covered-vertex counts.
  double vertex_balance = 0;
  /// Edges per partition.
  std::vector<uint64_t> edges_per_partition;
  /// Covered vertices |V(p_i)| per partition (masters + replicas).
  std::vector<uint64_t> vertices_per_partition;
  /// Covered vertices per partition that are replicated somewhere
  /// (|A(v)| > 1); each synchronizes its state in full-batch training.
  std::vector<uint64_t> synced_vertices_per_partition;
  /// Total number of vertex replicas, sum_v (|A(v)| - 1).
  uint64_t total_replicas = 0;

  std::string ToString() const;
};

/// Quality metrics of an edge-cut (vertex) partitioning, paper Section 2.1.
struct VertexPartitionMetrics {
  /// lambda = |E_cut| / |E|.
  double edge_cut_ratio = 0;
  /// max(|p_i|) / mean(|p_i|) over vertex counts.
  double vertex_balance = 0;
  /// Balance of *training* vertices across partitions (paper Fig. 13).
  double train_vertex_balance = 0;
  uint64_t cut_edges = 0;
  std::vector<uint64_t> vertices_per_partition;
  std::vector<uint64_t> train_vertices_per_partition;

  std::string ToString() const;
};

/// Computes vertex-cut quality metrics from one serial replica-mask pass and
/// one fold over the masks.
EdgePartitionMetrics ComputeEdgePartitionMetrics(const Graph& graph,
                                                 const EdgePartitioning& parts);

/// Computes edge-cut quality metrics; `split` supplies the training set for
/// the training-vertex balance (pass a default split for structural-only
/// metrics).
VertexPartitionMetrics ComputeVertexPartitionMetrics(
    const Graph& graph, const VertexPartitioning& parts,
    const VertexSplit& split);

}  // namespace gnnpart

#endif  // GNNPART_METRICS_PARTITION_METRICS_H_
