#ifndef GNNPART_HARNESS_EXPERIMENT_H_
#define GNNPART_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "gen/datasets.h"
#include "gnn/model_config.h"
#include "graph/graph.h"
#include "graph/split.h"
#include "metrics/partition_metrics.h"
#include "net/topology.h"
#include "partition/edge/registry.h"
#include "partition/partitioning.h"
#include "partition/vertex/registry.h"
#include "sim/cluster.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {

/// Shared configuration of every experiment runner. Scale/seed are read
/// from the environment (GNNPART_SCALE / GNNPART_SEED) by FromEnv so all
/// bench binaries can be resized uniformly.
struct ExperimentContext {
  double scale = 1.0;
  uint64_t seed = 42;
  /// Directory for the partitioning cache; "" disables caching. Partition
  /// results are deterministic in (dataset, scale, seed, partitioner, k),
  /// so the ~20 bench binaries share one cache instead of re-partitioning.
  std::string cache_dir;
  /// Train/validation fractions (paper: 10% / 10%).
  double train_fraction = 0.1;
  double validation_fraction = 0.1;
  /// Scaled default global batch size (paper: 1024 on ~500x larger graphs).
  size_t global_batch_size = 256;
  /// Fabric the simulated epochs run on (gnnpart::net). The default is the
  /// legacy full-bisection fabric; its tag is part of every profile cache
  /// key so cached artifacts are never reused across incompatible fabrics.
  net::NetworkConfig network;

  static ExperimentContext FromEnv();

  /// Cluster spec for a given machine count (paper: 4, 8, 16, 32).
  ClusterSpec MakeCluster(int machines) const;
};

/// The paper's scale-out factors.
std::vector<int> StudyMachineCounts();

/// The paper's Table 3 grid: feature/hidden in {16,64,512}, layers in
/// {2,3,4}, with default fan-outs and batch size from `ctx`.
std::vector<GnnConfig> HyperParameterGrid(const ExperimentContext& ctx,
                                          GnnArchitecture arch);

/// A generated dataset plus its train/val/test split.
struct DatasetBundle {
  Graph graph;
  VertexSplit split;
};
Result<DatasetBundle> LoadDataset(const ExperimentContext& ctx, DatasetId id);

/// Runs (or loads from cache) an edge partitioner, measuring wall time.
Result<EdgePartitioning> RunEdgePartitioner(const ExperimentContext& ctx,
                                            DatasetId dataset,
                                            const Graph& graph,
                                            EdgePartitionerId id,
                                            PartitionId k);

/// Runs (or loads from cache) a vertex partitioner, measuring wall time.
Result<VertexPartitioning> RunVertexPartitioner(const ExperimentContext& ctx,
                                                DatasetId dataset,
                                                const Graph& graph,
                                                const VertexSplit& split,
                                                VertexPartitionerId id,
                                                PartitionId k);

/// Everything the DistGNN figures/tables need for one (dataset, k):
/// per-partitioner quality metrics, partitioning time and the simulated
/// epoch report for every grid configuration.
struct DistGnnGridResult {
  DatasetId dataset;
  PartitionId k = 0;
  std::vector<GnnConfig> grid;
  std::vector<std::string> partitioners;  // display names, Random first
  std::map<std::string, EdgePartitionMetrics> metrics;
  std::map<std::string, double> partition_seconds;
  std::map<std::string, DistGnnWorkload> workloads;
  /// reports[name][i] = epoch report for grid[i].
  std::map<std::string, std::vector<DistGnnEpochReport>> reports;

  /// Speedups vs Random per grid configuration for one partitioner.
  std::vector<double> SpeedupsVsRandom(const std::string& name) const;
  /// Peak-memory in percent of Random per grid configuration.
  std::vector<double> MemoryPercentOfRandom(const std::string& name) const;
};

Result<DistGnnGridResult> RunDistGnnGrid(const ExperimentContext& ctx,
                                         DatasetId dataset, PartitionId k);

/// Everything the DistDGL figures/tables need for one (dataset, k, arch).
struct DistDglGridResult {
  DatasetId dataset;
  PartitionId k = 0;
  GnnArchitecture arch = GnnArchitecture::kGraphSage;
  std::vector<GnnConfig> grid;
  std::vector<std::string> partitioners;
  std::map<std::string, VertexPartitionMetrics> metrics;
  std::map<std::string, double> partition_seconds;
  /// profiles[name][l] = epoch sampling profile for (num_layers = l+2).
  std::map<std::string, std::vector<DistDglEpochProfile>> profiles;
  std::map<std::string, std::vector<DistDglEpochReport>> reports;

  std::vector<double> SpeedupsVsRandom(const std::string& name) const;

  const DistDglEpochProfile& ProfileFor(const std::string& name,
                                        int num_layers) const {
    return profiles.at(name)[static_cast<size_t>(num_layers - 2)];
  }
};

Result<DistDglGridResult> RunDistDglGrid(const ExperimentContext& ctx,
                                         DatasetId dataset, PartitionId k,
                                         GnnArchitecture arch);

/// Runs (or loads from cache) one epoch's sampling profile for a vertex
/// partitioner at the given layer count and global batch size. This is the
/// expensive part of the DistDGL experiments; caching it makes the ~15
/// DistDGL bench binaries share the work.
Result<DistDglEpochProfile> ProfileWithCache(const ExperimentContext& ctx,
                                             DatasetId dataset,
                                             const Graph& graph,
                                             const VertexSplit& split,
                                             VertexPartitionerId id,
                                             PartitionId k, int num_layers,
                                             size_t global_batch_size);

/// Epochs until the partitioning time is amortized by faster training,
/// averaged over the grid (paper Tables 4/5; Random assumed free).
/// Returns a negative value when no amortization is possible (slowdown).
double AmortizationEpochs(const std::vector<double>& random_epoch_seconds,
                          const std::vector<double>& partitioner_epoch_seconds,
                          double partition_seconds);

/// Formats an amortization value like the paper ("no" for slowdowns).
std::string FormatAmortization(double epochs);

}  // namespace gnnpart

#endif  // GNNPART_HARNESS_EXPERIMENT_H_
