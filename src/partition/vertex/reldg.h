#ifndef GNNPART_PARTITION_VERTEX_RELDG_H_
#define GNNPART_PARTITION_VERTEX_RELDG_H_

#include "partition/partitioning.h"

namespace gnnpart {

/// Restreaming LDG [Nishimura & Ugander, KDD'13 — reference 33 of the
/// paper]: runs the LDG objective over several passes of the vertex
/// stream; from the second pass on every vertex sees the *complete*
/// previous assignment, so the partitioning converges like constrained
/// label propagation while keeping LDG's strict streaming structure.
/// Extension beyond the paper's Table 2 line-up.
class ReldgPartitioner : public VertexPartitioner {
 public:
  explicit ReldgPartitioner(int passes = 3, double slack = 1.05)
      : passes_(passes), slack_(slack) {}

  std::string name() const override { return "ReLDG"; }
  std::string category() const override { return "restreaming"; }
  Result<VertexPartitioning> Partition(const Graph& graph,
                                       const VertexSplit& split, PartitionId k,
                                       uint64_t seed) const override;

  /// Warm restreaming: re-runs the LDG objective seeded with a complete
  /// `prior` assignment. `stay_bonus` is added to the vertex's current
  /// partition's neighbor count inside the multiplicative LDG score (so the
  /// penalty term still discourages staying on an overloaded partition).
  /// The restream contract is RestreamVertices' (streaming.h).
  Result<VertexPartitioning> Repartition(
      const Graph& graph, const VertexSplit& split, PartitionId k,
      uint64_t seed, const std::vector<PartitionId>& prior, double stay_bonus,
      int max_passes, uint64_t* last_pass_moves = nullptr) const;

 private:
  int passes_;
  double slack_;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_VERTEX_RELDG_H_
