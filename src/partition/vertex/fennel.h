#ifndef GNNPART_PARTITION_VERTEX_FENNEL_H_
#define GNNPART_PARTITION_VERTEX_FENNEL_H_

#include "partition/partitioning.h"

namespace gnnpart {

/// Fennel [Tsourakakis et al., WSDM'14]: single-pass streaming edge-cut
/// partitioning with the interpolated objective
///   argmax_i |N(v) ∩ P_i| − alpha * gamma * |P_i|^{gamma−1}.
/// Not part of the paper's Table 2 line-up; included as an extension
/// partitioner (it is the standard streaming baseline between LDG and the
/// in-memory partitioners).
class FennelPartitioner : public VertexPartitioner {
 public:
  explicit FennelPartitioner(double gamma = 1.5, double load_slack = 1.1)
      : gamma_(gamma), load_slack_(load_slack) {}

  std::string name() const override { return "Fennel"; }
  std::string category() const override { return "stateful streaming"; }
  Result<VertexPartitioning> Partition(const Graph& graph,
                                       const VertexSplit& split, PartitionId k,
                                       uint64_t seed) const override;

  /// ReFennel restreaming: re-runs the Fennel objective seeded with a
  /// complete `prior` assignment, adding `stay_bonus` (neighbor-score
  /// units) to the vertex's current partition as a migration-penalty term.
  /// The restream contract is RestreamVertices' (streaming.h): the current
  /// partition stays a candidate even at capacity, since a full prior may
  /// legally saturate every partition.
  Result<VertexPartitioning> Repartition(
      const Graph& graph, const VertexSplit& split, PartitionId k,
      uint64_t seed, const std::vector<PartitionId>& prior, double stay_bonus,
      int max_passes, uint64_t* last_pass_moves = nullptr) const;

 private:
  double gamma_;
  double load_slack_;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_VERTEX_FENNEL_H_
