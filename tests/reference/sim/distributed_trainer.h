#ifndef GNNPART_SIM_DISTRIBUTED_TRAINER_H_
#define GNNPART_SIM_DISTRIBUTED_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "gnn/reference_net.h"
#include "graph/graph.h"
#include "graph/split.h"
#include "partition/partitioning.h"
#include "sampling/block_sampler.h"

namespace gnnpart {

/// Data-parallel mini-batch GNN training with *real* math over the
/// partitioned graph — the executable counterpart of the DistDGL
/// simulator's cost model.
///
/// Semantics mirror DistDGL: k workers each hold a synchronized model
/// replica; per step every worker samples a mini-batch of training vertices
/// from its own partition, extracts the multi-hop block subgraph, runs
/// forward/backward on it, and the gradients are averaged across workers
/// (all-reduce) before the plain-SGD step. Because the replicas stay
/// bit-identical under synchronous all-reduce, the implementation keeps a
/// single parameter set and accumulates every worker's gradients into it —
/// numerically the same algorithm, executed sequentially.
///
/// This demonstrates the paper's implicit premise: the partitioner changes
/// *where* data lives (and thus time and traffic), not *what* is learned.
class DataParallelTrainer {
 public:
  struct Options {
    GnnConfig gnn;
    size_t global_batch_size = 256;
    float learning_rate = 0.05f;
    uint64_t seed = 42;
  };

  /// The graph, features, labels and split must outlive the trainer.
  static Result<DataParallelTrainer> Create(const Graph& graph,
                                            const Matrix& features,
                                            const std::vector<int32_t>& labels,
                                            const VertexSplit& split,
                                            const VertexPartitioning& parts,
                                            Options options);

  /// Runs one epoch (every training vertex visited once in expectation).
  /// Returns the mean mini-batch loss. Also accumulates the locality
  /// counters below.
  Result<double> RunEpoch();

  /// Accuracy over a vertex subset, evaluated full-graph.
  double Evaluate(const std::vector<VertexId>& subset);

  /// Total distinct input vertices touched so far whose features lived on
  /// a remote partition (the measured quantity behind feature-fetch time).
  uint64_t remote_feature_fetches() const { return remote_fetches_; }
  uint64_t total_input_vertices() const { return total_inputs_; }
  size_t steps_per_epoch() const { return steps_per_epoch_; }

  ReferenceNet& net() { return *net_; }

 private:
  DataParallelTrainer(const Graph& graph, const Matrix& features,
                      const std::vector<int32_t>& labels,
                      const VertexSplit& split,
                      const VertexPartitioning& parts, Options options);

  const Graph& graph_;
  const Matrix& features_;
  const std::vector<int32_t>& labels_;
  const VertexPartitioning& parts_;
  Options options_;
  std::unique_ptr<ReferenceNet> net_;
  BlockSampler sampler_;
  Rng rng_;
  std::vector<std::vector<VertexId>> shards_;  // training vertices per worker
  std::vector<size_t> cursor_;
  size_t steps_per_epoch_ = 0;
  uint64_t remote_fetches_ = 0;
  uint64_t total_inputs_ = 0;
};

}  // namespace gnnpart

#endif  // GNNPART_SIM_DISTRIBUTED_TRAINER_H_
