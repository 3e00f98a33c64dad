#ifndef GNNPART_HARNESS_EXPERIMENT_H_
#define GNNPART_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "gen/datasets.h"
#include "gnn/model_config.h"
#include "graph/graph.h"
#include "graph/split.h"
#include "metrics/partition_metrics.h"
#include "partition/edge/registry.h"
#include "partition/partitioning.h"
#include "partition/vertex/registry.h"
#include "sim/cluster.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {

/// Shared configuration of every experiment runner. Scale/seed are read
/// from the environment (GNNPART_SCALE / GNNPART_SEED) by FromEnv so all
/// study tables can be resized uniformly.
struct ExperimentContext {
  double scale = 1.0;
  uint64_t seed = 42;
  /// Train/validation fractions (paper: 10% / 10%).
  double train_fraction = 0.1;
  double validation_fraction = 0.1;
  /// Scaled default global batch size (paper: 1024 on ~500x larger graphs).
  size_t global_batch_size = 256;

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
  /// reports[name][i] = epoch report for grid[i].
  std::map<std::string, std::vector<DistGnnEpochReport>> reports;

  /// Speedups vs Random per grid configuration for one partitioner.
  std::vector<double> SpeedupsVsRandom(const std::string& name) const;
  /// Peak-memory in percent of Random per grid configuration.
  std::vector<double> MemoryPercentOfRandom(const std::string& name) const;
};

/// Everything the DistDGL figures/tables need for one (dataset, k, arch).
struct DistDglGridResult {
  DatasetId dataset;
  PartitionId k = 0;
  GnnArchitecture arch = GnnArchitecture::kGraphSage;
  std::vector<GnnConfig> grid;
  std::vector<std::string> partitioners;
  std::map<std::string, VertexPartitionMetrics> metrics;
  std::map<std::string, double> partition_seconds;
  /// profiles[name][l] = epoch sampling profile for (num_layers = l+2),
  /// owned by the Study that built this grid.
  std::map<std::string, std::vector<const DistDglEpochProfile*>> profiles;
  std::map<std::string, std::vector<DistDglEpochReport>> reports;

  std::vector<double> SpeedupsVsRandom(const std::string& name) const;

  const DistDglEpochProfile& ProfileFor(const std::string& name,
                                        int num_layers) const {
    return *profiles.at(name)[static_cast<size_t>(num_layers - 2)];
  }
};

/// One edge partitioner run, reduced to what the study tables read. The
/// assignment itself is digested and dropped once these are derived.
struct EdgeRun {
  double partitioning_seconds = 0;
  EdgePartitionMetrics metrics;
  DistGnnWorkload workload;
};

/// One vertex partitioner run. The assignment is kept: sampling profiles
/// are built from it.
struct VertexRun {
  VertexPartitioning parts;
  VertexPartitionMetrics metrics;
};

/// The study's in-process memo. Every artifact — dataset, partitioning,
/// sampling profile, simulated grid — is computed once, on first request,
/// by the process that prints it, and later requests return the same
/// object. Partitioning seconds are therefore always measured by this
/// process. Each memoized partitioning and grid publishes a det:true
/// `study/.../digest` gauge (64-bit FNV-1a of its assignment, or of every
/// cell's result bit patterns), so the run manifest pins the whole study.
///
/// Returned pointers stay valid for the Study's lifetime. Not thread-safe:
/// call from serial code (grids parallelize their cells internally). Not
/// copyable: memoized grids point at the same Study's profiles.
class Study {
 public:
  explicit Study(ExperimentContext ctx) : ctx_(std::move(ctx)) {}
  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  const ExperimentContext& ctx() const { return ctx_; }

  Result<const DatasetBundle*> Dataset(DatasetId dataset);
  /// Runs an edge partitioner, measuring its wall time.
  Result<const EdgeRun*> Edge(DatasetId dataset, EdgePartitionerId id,
                              PartitionId k);
  /// Runs a vertex partitioner, measuring its wall time.
  Result<const VertexRun*> Vertex(DatasetId dataset, VertexPartitionerId id,
                                  PartitionId k);
  /// One epoch's sampling profile over the memoized vertex partitioning.
  Result<const DistDglEpochProfile*> Profile(DatasetId dataset,
                                             VertexPartitionerId id,
                                             PartitionId k, int num_layers,
                                             size_t global_batch_size);
  Result<const DistGnnGridResult*> DistGnnGrid(DatasetId dataset,
                                               PartitionId k);
  Result<const DistDglGridResult*> DistDglGrid(DatasetId dataset,
                                               PartitionId k,
                                               GnnArchitecture arch);

 private:
  ExperimentContext ctx_;
  std::map<DatasetId, DatasetBundle> datasets_;
  std::map<std::tuple<DatasetId, EdgePartitionerId, PartitionId>, EdgeRun>
      edge_runs_;
  std::map<std::tuple<DatasetId, VertexPartitionerId, PartitionId>,
           VertexRun>
      vertex_runs_;
  std::map<std::tuple<DatasetId, VertexPartitionerId, PartitionId, int,
                      size_t>,
           DistDglEpochProfile>
      profiles_;
  std::map<std::pair<DatasetId, PartitionId>, DistGnnGridResult>
      distgnn_grids_;
  std::map<std::tuple<DatasetId, PartitionId, GnnArchitecture>,
           DistDglGridResult>
      distdgl_grids_;
};

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
