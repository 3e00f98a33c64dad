#ifndef GNNPART_PARTITION_EDGE_HEP_H_
#define GNNPART_PARTITION_EDGE_HEP_H_

#include "partition/partitioning.h"

namespace gnnpart {

/// Hybrid Edge Partitioner [Mayer & Jacobsen, SIGMOD'21].
///
/// Vertices with incident-edge count <= tau * mean degree form the
/// "low-degree" part, which is partitioned in memory with greedy
/// neighbourhood expansion (NE): partitions are grown vertex by vertex,
/// preferring the boundary vertex with the fewest unassigned external
/// edges, so replication stays minimal. Edges incident to high-degree
/// vertices — plus any low-degree leftovers between expansion sets — are
/// then streamed with HDRF scoring on top of the existing replica state.
///
/// tau = 10 and tau = 100 correspond to the paper's HEP10 / HEP100
/// configurations; with tau = 100 essentially the whole graph is
/// partitioned in memory.
class HepPartitioner : public StreamingEdgePartitioner {
 public:
  explicit HepPartitioner(double tau, double alpha = 1.05, double lambda = 1.1)
      : tau_(tau), alpha_(alpha), lambda_(lambda) {}

  std::string name() const override {
    // Integral taus print without a decimal point: HEP10, HEP100.
    double t = tau_;
    if (t == static_cast<double>(static_cast<long long>(t))) {
      return "HEP" + std::to_string(static_cast<long long>(t));
    }
    return "HEP" + std::to_string(t);
  }
  std::string category() const override { return "hybrid"; }
  Result<EdgePartitioning> Partition(const Graph& graph, PartitionId k,
                                     uint64_t seed) const override;
  /// Runs the full hybrid pipeline (classification, NE expansion, HDRF
  /// streaming) over the sub-stream: the low-low CSR that NE expands over,
  /// the degree threshold and the balance cap are all derived from the
  /// sub-stream, so shard instances are self-contained. Returns
  /// InvalidArgument for a non-finite or non-positive tau, alpha or lambda.
  Status PartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                         PartitionId k, Rng* rng,
                         std::vector<PartitionId>* assignment) const override;

  double tau() const { return tau_; }

 private:
  double tau_;
  double alpha_;
  double lambda_;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_EDGE_HEP_H_
