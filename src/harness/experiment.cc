#include "harness/experiment.h"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/parallel.h"
#include "common/timer.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over a byte range; chain calls by passing the previous
/// result as `hash`.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t hash = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Publishes a digest as a det:true gauge (bit-cast to the gauge's int64).
void RecordDigest(const std::string& name, uint64_t digest) {
  int64_t level = 0;
  std::memcpy(&level, &digest, sizeof(level));
  obs::GetGauge(name + "/digest", "fnv1a64").Set(level);
}

std::string RunName(const char* kind, DatasetId dataset,
                    const std::string& partitioner, PartitionId k) {
  return std::string("study/") + kind + "/" + DatasetCode(dataset) + "/" +
         partitioner + "/k" + std::to_string(k);
}

}  // namespace

void RecordAssignmentDigest(const std::string& name,
                            const std::vector<PartitionId>& assignment) {
  RecordDigest(name, Fnv1a(assignment.data(),
                           assignment.size() * sizeof(PartitionId)));
}

ExperimentContext ExperimentContext::FromEnv() {
  ExperimentContext ctx;
  if (const char* s = std::getenv("GNNPART_SCALE")) ctx.scale = std::atof(s);
  if (const char* s = std::getenv("GNNPART_SEED")) {
    ctx.seed = static_cast<uint64_t>(std::atoll(s));
  }
  if (const char* s = std::getenv("GNNPART_GBS")) {
    ctx.global_batch_size = static_cast<size_t>(std::atoll(s));
  }
  return ctx;
}

ClusterSpec ExperimentContext::MakeCluster(int machines) const {
  ClusterSpec spec;
  spec.num_machines = machines;
  return spec;
}

std::vector<int> StudyMachineCounts() { return {4, 8, 16, 32}; }

std::vector<GnnConfig> HyperParameterGrid(const ExperimentContext& ctx,
                                          GnnArchitecture arch) {
  const std::vector<size_t> dims = {16, 64, 512};
  const std::vector<int> layer_counts = {2, 3, 4};
  std::vector<GnnConfig> grid;
  grid.reserve(dims.size() * dims.size() * layer_counts.size());
  for (int layers : layer_counts) {
    for (size_t feature : dims) {
      for (size_t hidden : dims) {
        GnnConfig config;
        config.arch = arch;
        config.num_layers = layers;
        config.feature_size = feature;
        config.hidden_dim = hidden;
        config.num_classes = 16;
        config.fanouts = GnnConfig::DefaultFanouts(layers);
        config.global_batch_size = ctx.global_batch_size;
        grid.push_back(config);
      }
    }
  }
  return grid;
}

Result<DatasetBundle> LoadDataset(const ExperimentContext& ctx, DatasetId id) {
  obs::ScopedTimer timer("time/generate");
  Result<Graph> graph = MakeDataset(id, ctx.scale, ctx.seed);
  if (!graph.ok()) return graph.status();
  DatasetBundle bundle{std::move(graph).value(), {}};
  obs::RecordStructureBytes("graph", bundle.graph.MemoryBytes());
  bundle.split = VertexSplit::MakeRandom(bundle.graph.num_vertices(),
                                         ctx.train_fraction,
                                         ctx.validation_fraction, ctx.seed);
  return bundle;
}

std::vector<double> DistGnnGridResult::SpeedupsVsRandom(
    const std::string& name) const {
  const auto& random = reports.at("Random");
  const auto& mine = reports.at(name);
  std::vector<double> speedups;
  speedups.reserve(mine.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].epoch_seconds > 0) {
      speedups.push_back(random[i].epoch_seconds / mine[i].epoch_seconds);
    }
  }
  return speedups;
}

std::vector<double> DistGnnGridResult::MemoryPercentOfRandom(
    const std::string& name) const {
  const auto& random = reports.at("Random");
  const auto& mine = reports.at(name);
  std::vector<double> percents;
  percents.reserve(mine.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    if (random[i].mean_memory_bytes > 0) {
      percents.push_back(100.0 * mine[i].mean_memory_bytes /
                         random[i].mean_memory_bytes);
    }
  }
  return percents;
}

std::vector<double> DistDglGridResult::SpeedupsVsRandom(
    const std::string& name) const {
  const auto& random = reports.at("Random");
  const auto& mine = reports.at(name);
  std::vector<double> speedups;
  speedups.reserve(mine.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].epoch_seconds > 0) {
      speedups.push_back(random[i].epoch_seconds / mine[i].epoch_seconds);
    }
  }
  return speedups;
}

Result<const DatasetBundle*> Study::Dataset(DatasetId dataset) {
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    Result<DatasetBundle> bundle = LoadDataset(ctx_, dataset);
    if (!bundle.ok()) return bundle.status();
    it = datasets_.emplace(dataset, std::move(bundle).value()).first;
  }
  return &it->second;
}

Result<const EdgeRun*> Study::Edge(DatasetId dataset, EdgePartitionerId id,
                                   PartitionId k) {
  const auto key = std::make_tuple(dataset, id, k);
  if (auto it = edge_runs_.find(key); it != edge_runs_.end()) {
    return &it->second;
  }
  Result<const DatasetBundle*> bundle = Dataset(dataset);
  if (!bundle.ok()) return bundle.status();
  const Graph& graph = (*bundle)->graph;
  auto partitioner = MakeEdgePartitioner(id);
  WallTimer timer;
  Result<EdgePartitioning> parts = [&] {
    obs::ScopedTimer phase("time/partition/" + partitioner->name());
    return partitioner->Partition(graph, k, ctx_.seed);
  }();
  if (!parts.ok()) return parts.status();
  EdgeRun run;
  run.partitioning_seconds = timer.ElapsedSeconds();
  obs::RecordStructureBytes(
      "edge_assignment", parts->assignment.size() * sizeof(PartitionId));
  RecordAssignmentDigest(RunName("edge", dataset, partitioner->name(), k),
                         parts->assignment);
  run.metrics = ComputeEdgePartitionMetrics(graph, *parts);
  run.workload = BuildDistGnnWorkload(graph, run.metrics);
  return &edge_runs_.emplace(key, std::move(run)).first->second;
}

Result<const VertexRun*> Study::Vertex(DatasetId dataset,
                                       VertexPartitionerId id,
                                       PartitionId k) {
  const auto key = std::make_tuple(dataset, id, k);
  if (auto it = vertex_runs_.find(key); it != vertex_runs_.end()) {
    return &it->second;
  }
  Result<const DatasetBundle*> bundle = Dataset(dataset);
  if (!bundle.ok()) return bundle.status();
  const Graph& graph = (*bundle)->graph;
  const VertexSplit& split = (*bundle)->split;
  auto partitioner = MakeVertexPartitioner(id);
  WallTimer timer;
  Result<VertexPartitioning> parts = [&] {
    obs::ScopedTimer phase("time/partition/" + partitioner->name());
    return partitioner->Partition(graph, split, k, ctx_.seed);
  }();
  if (!parts.ok()) return parts.status();
  VertexRun run;
  run.parts = std::move(parts).value();
  run.parts.partitioning_seconds = timer.ElapsedSeconds();
  obs::RecordStructureBytes(
      "vertex_assignment", run.parts.assignment.size() * sizeof(PartitionId));
  RecordAssignmentDigest(RunName("vertex", dataset, partitioner->name(), k),
                         run.parts.assignment);
  run.metrics = ComputeVertexPartitionMetrics(graph, run.parts, split);
  return &vertex_runs_.emplace(key, std::move(run)).first->second;
}

Result<const DistDglEpochProfile*> Study::Profile(DatasetId dataset,
                                                  VertexPartitionerId id,
                                                  PartitionId k,
                                                  int num_layers,
                                                  size_t global_batch_size) {
  const auto key =
      std::make_tuple(dataset, id, k, num_layers, global_batch_size);
  if (auto it = profiles_.find(key); it != profiles_.end()) {
    return &it->second;
  }
  Result<const VertexRun*> run = Vertex(dataset, id, k);
  if (!run.ok()) return run.status();
  const DatasetBundle& bundle = datasets_.at(dataset);
  Result<DistDglEpochProfile> profile = [&] {
    obs::ScopedTimer phase("time/profile");
    return ProfileDistDglEpoch(
        bundle.graph, (*run)->parts, bundle.split,
        GnnConfig::DefaultFanouts(num_layers), global_batch_size,
        ctx_.seed + static_cast<uint64_t>(num_layers));
  }();
  if (!profile.ok()) return profile.status();
  return &profiles_.emplace(key, std::move(profile).value()).first->second;
}

Result<const DistGnnGridResult*> Study::DistGnnGrid(DatasetId dataset,
                                                    PartitionId k) {
  const auto key = std::make_pair(dataset, k);
  if (auto it = distgnn_grids_.find(key); it != distgnn_grids_.end()) {
    return &it->second;
  }
  DistGnnGridResult result;
  result.dataset = dataset;
  result.k = k;
  result.grid = HyperParameterGrid(ctx_, GnnArchitecture::kGraphSage);
  const ClusterSpec cluster = ctx_.MakeCluster(static_cast<int>(k));

  uint64_t digest = kFnvOffsetBasis;
  for (EdgePartitionerId id : AllEdgePartitioners()) {
    Result<const EdgeRun*> run = Edge(dataset, id, k);
    if (!run.ok()) return run.status();
    const std::string name = MakeEdgePartitioner(id)->name();
    result.partitioners.push_back(name);
    result.partition_seconds[name] = (*run)->partitioning_seconds;
    result.metrics[name] = (*run)->metrics;
    // Grid cells are independent pure functions of (workload, config);
    // evaluate them concurrently straight into their slots.
    const DistGnnWorkload& workload = (*run)->workload;
    auto& reports = result.reports[name];
    reports.resize(result.grid.size());
    ParallelFor(result.grid.size(), 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        reports[i] = SimulateDistGnnEpoch(workload, result.grid[i], cluster);
      }
    });
    for (const DistGnnEpochReport& r : reports) {
      digest = Fnv1a(&r.epoch_seconds, sizeof(double), digest);
      digest = Fnv1a(&r.max_memory_bytes, sizeof(double), digest);
      digest = Fnv1a(&r.mean_memory_bytes, sizeof(double), digest);
    }
  }
  RecordDigest("study/distgnn/" + DatasetCode(dataset) + "/k" +
                   std::to_string(k),
               digest);
  return &distgnn_grids_.emplace(key, std::move(result)).first->second;
}

Result<const DistDglGridResult*> Study::DistDglGrid(DatasetId dataset,
                                                    PartitionId k,
                                                    GnnArchitecture arch) {
  const auto key = std::make_tuple(dataset, k, arch);
  if (auto it = distdgl_grids_.find(key); it != distdgl_grids_.end()) {
    return &it->second;
  }
  DistDglGridResult result;
  result.dataset = dataset;
  result.k = k;
  result.arch = arch;
  result.grid = HyperParameterGrid(ctx_, arch);
  const ClusterSpec cluster = ctx_.MakeCluster(static_cast<int>(k));

  uint64_t digest = kFnvOffsetBasis;
  for (VertexPartitionerId id : AllVertexPartitioners()) {
    Result<const VertexRun*> run = Vertex(dataset, id, k);
    if (!run.ok()) return run.status();
    const std::string name = MakeVertexPartitioner(id)->name();
    result.partitioners.push_back(name);
    result.partition_seconds[name] = (*run)->parts.partitioning_seconds;
    result.metrics[name] = (*run)->metrics;

    // Sampling profiles depend only on the layer count; one per L.
    auto& profiles = result.profiles[name];
    for (int layers : {2, 3, 4}) {
      Result<const DistDglEpochProfile*> profile =
          Profile(dataset, id, k, layers, ctx_.global_batch_size);
      if (!profile.ok()) return profile.status();
      profiles.push_back(*profile);
    }
    auto& reports = result.reports[name];
    reports.resize(result.grid.size());
    ParallelFor(result.grid.size(), 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        const GnnConfig& config = result.grid[i];
        const DistDglEpochProfile& profile =
            *profiles[static_cast<size_t>(config.num_layers - 2)];
        reports[i] = SimulateDistDglEpoch(profile, config, cluster);
      }
    });
    for (const DistDglEpochReport& r : reports) {
      digest = Fnv1a(&r.epoch_seconds, sizeof(double), digest);
      digest = Fnv1a(&r.total_network_bytes, sizeof(double), digest);
    }
  }
  RecordDigest("study/distdgl/" + DatasetCode(dataset) + "/k" +
                   std::to_string(k) + "/" + ArchitectureName(arch),
               digest);
  return &distdgl_grids_.emplace(key, std::move(result)).first->second;
}

double AmortizationEpochs(const std::vector<double>& random_epoch_seconds,
                          const std::vector<double>& partitioner_epoch_seconds,
                          double partition_seconds) {
  double saved_per_epoch = 0;
  size_t count = 0;
  for (size_t i = 0; i < random_epoch_seconds.size() &&
                     i < partitioner_epoch_seconds.size();
       ++i) {
    saved_per_epoch += random_epoch_seconds[i] - partitioner_epoch_seconds[i];
    ++count;
  }
  if (count == 0) return -1;
  saved_per_epoch /= static_cast<double>(count);
  if (saved_per_epoch <= 0) return -1;  // slowdown: no amortization
  return partition_seconds / saved_per_epoch;
}

std::string FormatAmortization(double epochs) {
  if (epochs < 0) return "no";
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << epochs;
  return os.str();
}

}  // namespace gnnpart
