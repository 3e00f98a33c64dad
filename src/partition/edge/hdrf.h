#ifndef GNNPART_PARTITION_EDGE_HDRF_H_
#define GNNPART_PARTITION_EDGE_HDRF_H_

#include "partition/partitioning.h"

namespace gnnpart {

/// High-Degree Replicated First [Petroni et al., CIKM'15]: stateful
/// streaming vertex-cut partitioning. For each streamed edge the partition
/// maximizing a replication score (prefer partitions already holding the
/// endpoints, weighted so the *lower*-degree endpoint's replica counts more)
/// plus a load-balance term is chosen.
class HdrfPartitioner : public StreamingEdgePartitioner {
 public:
  /// lambda weighs the balance term (paper default 1.1);
  /// epsilon avoids division by zero in the balance term. Partitioning
  /// returns InvalidArgument for a non-finite or negative lambda and a
  /// non-finite or non-positive epsilon.
  explicit HdrfPartitioner(double lambda = 1.1, double epsilon = 1.0)
      : lambda_(lambda), epsilon_(epsilon) {}

  std::string name() const override { return "HDRF"; }
  std::string category() const override { return "stateful streaming"; }
  Result<EdgePartitioning> Partition(const Graph& graph, PartitionId k,
                                     uint64_t seed) const override;
  Status PartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                         PartitionId k, Rng* rng,
                         std::vector<PartitionId>* assignment) const override;

 private:
  double lambda_;
  double epsilon_;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_EDGE_HDRF_H_
