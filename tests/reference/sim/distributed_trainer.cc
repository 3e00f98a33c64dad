#include "sim/distributed_trainer.h"

#include <numeric>

namespace gnnpart {

Result<DataParallelTrainer> DataParallelTrainer::Create(
    const Graph& graph, const Matrix& features,
    const std::vector<int32_t>& labels, const VertexSplit& split,
    const VertexPartitioning& parts, Options options) {
  if (features.rows() != graph.num_vertices()) {
    return Status::InvalidArgument("feature matrix does not match |V|");
  }
  if (labels.size() != graph.num_vertices()) {
    return Status::InvalidArgument("label vector does not match |V|");
  }
  if (parts.assignment.size() != graph.num_vertices()) {
    return Status::InvalidArgument("partitioning does not match the graph");
  }
  if (split.train_vertices().empty()) {
    return Status::FailedPrecondition("no training vertices");
  }
  if (options.global_batch_size == 0) {
    return Status::InvalidArgument("global batch size must be > 0");
  }
  if (options.gnn.fanouts.size() !=
      static_cast<size_t>(options.gnn.num_layers)) {
    return Status::InvalidArgument(
        "fanouts must have one entry per GNN layer");
  }
  return DataParallelTrainer(graph, features, labels, split, parts,
                             std::move(options));
}

DataParallelTrainer::DataParallelTrainer(const Graph& graph,
                                         const Matrix& features,
                                         const std::vector<int32_t>& labels,
                                         const VertexSplit& split,
                                         const VertexPartitioning& parts,
                                         Options options)
    : graph_(graph),
      features_(features),
      labels_(labels),
      parts_(parts),
      options_(std::move(options)),
      net_(std::make_unique<ReferenceNet>(options_.gnn, options_.seed)),
      sampler_(graph),
      rng_(options_.seed),
      shards_(parts.k),
      cursor_(parts.k, 0) {
  for (VertexId v : split.train_vertices()) {
    shards_[parts.assignment[v]].push_back(v);
  }
  for (auto& shard : shards_) {
    rng_.Shuffle(&shard);
    if (shard.empty()) shard = split.train_vertices();  // empty partition
  }
  steps_per_epoch_ =
      (split.train_vertices().size() + options_.global_batch_size - 1) /
      options_.global_batch_size;
}

Result<double> DataParallelTrainer::RunEpoch() {
  const PartitionId k = parts_.k;
  const size_t local_batch =
      std::max<size_t>(1, options_.global_batch_size / k);
  const size_t feat_dim = features_.cols();
  double loss_sum = 0;
  size_t loss_count = 0;

  std::vector<VertexId> seeds;
  for (size_t step = 0; step < steps_per_epoch_; ++step) {
    for (PartitionId w = 0; w < k; ++w) {
      seeds.clear();
      const auto& shard = shards_[w];
      for (size_t i = 0; i < local_batch; ++i) {
        seeds.push_back(shard[cursor_[w] % shard.size()]);
        ++cursor_[w];
      }
      Rng worker_rng = rng_.Fork((step << 8) ^ w);
      SampledBlock block =
          sampler_.SampleBlock(seeds, options_.gnn.fanouts, &worker_rng);
      Result<Graph> local = block.BuildLocalGraph();
      if (!local.ok()) return local.status();

      // Gather features/labels for the block (the remote share of this
      // gather is what DistDGL's feature-fetch phase ships over the wire).
      Matrix block_features(block.vertices.size(), feat_dim);
      std::vector<int32_t> block_labels(block.vertices.size());
      for (size_t i = 0; i < block.vertices.size(); ++i) {
        VertexId v = block.vertices[i];
        const float* src = features_.Row(v);
        std::copy(src, src + feat_dim, block_features.Row(i));
        block_labels[i] = labels_[v];
        if (parts_.assignment[v] != w) ++remote_fetches_;
      }
      total_inputs_ += block.vertices.size();

      std::vector<uint32_t> loss_rows(block.num_seeds);
      std::iota(loss_rows.begin(), loss_rows.end(), 0);
      Result<double> loss =
          net_->AccumulateStep(*local, block_features, block_labels,
                               loss_rows);
      if (!loss.ok()) return loss.status();
      loss_sum += *loss;
      ++loss_count;
    }
    // Synchronous all-reduce: gradients from all k workers are averaged
    // and applied once.
    for (auto [param, grad] : net_->ParamsAndGrads()) {
      (void)param;
      grad->Scale(1.0f / static_cast<float>(k));
    }
    net_->ApplyGradients(options_.learning_rate);
  }
  return loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
}

double DataParallelTrainer::Evaluate(const std::vector<VertexId>& subset) {
  return net_->Evaluate(graph_, features_, labels_, subset);
}

}  // namespace gnnpart
