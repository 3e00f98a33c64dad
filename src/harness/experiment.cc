#include "harness/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "check/check.h"
#include "check/validators.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "harness/cache.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

// Bump when partitioner or generator algorithms change, so stale cache
// entries from older binaries cannot leak into results. v5: Multilevel's
// label-propagation coarsening now breaks connectivity ties on the smallest
// label, which can move Metis-family assignments on exact ties. v6: profile
// keys carry the gnnpart::net fabric tag (topology/overlap config), so
// entries written before the network model existed are retired. v7: the
// multilevel engine moved to flat arrays; assignments are unchanged, but a
// cache hit reports the partitioning seconds stored with the entry, so
// older entries would show the old engine's KaHIP/Metis times in Figs 6/15
// and Tables 4/5.
constexpr int kCacheVersion = 7;

std::string CacheKey(const ExperimentContext& ctx, DatasetId dataset,
                     const std::string& partitioner, PartitionId k) {
  std::ostringstream os;
  os << "v" << kCacheVersion << "-" << DatasetCode(dataset) << "-s"
     << ctx.scale << "-r" << ctx.seed << "-" << partitioner << "-k" << k;
  return os.str();
}

/// Structural sanity for assignments loaded from disk: the checksum proves
/// the bytes survived, not that they are a valid partitioning for this
/// graph. Out-of-range ids would index past metric arrays downstream.
bool CachedAssignmentValid(const std::vector<PartitionId>& assignment,
                           PartitionId k, size_t expected_size,
                           const std::string& key) {
  if (assignment.size() != expected_size) return false;  // stale, not corrupt
  for (PartitionId p : assignment) {
    if (p >= k) {
      std::fprintf(stderr,
                   "[gnnpart] cache/id-range: entry '%s' holds partition id "
                   "%u >= k=%u; recomputing\n",
                   key.c_str(), static_cast<unsigned>(p),
                   static_cast<unsigned>(k));
      return false;
    }
  }
  return true;
}

}  // namespace

ExperimentContext ExperimentContext::FromEnv() {
  ExperimentContext ctx;
  if (const char* s = std::getenv("GNNPART_SCALE")) ctx.scale = std::atof(s);
  if (const char* s = std::getenv("GNNPART_SEED")) {
    ctx.seed = static_cast<uint64_t>(std::atoll(s));
  }
  if (const char* s = std::getenv("GNNPART_CACHE_DIR")) {
    ctx.cache_dir = s;
  } else {
    ctx.cache_dir = "/tmp/gnnpart_cache";
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

Result<EdgePartitioning> RunEdgePartitioner(const ExperimentContext& ctx,
                                            DatasetId dataset,
                                            const Graph& graph,
                                            EdgePartitionerId id,
                                            PartitionId k) {
  auto partitioner = MakeEdgePartitioner(id);
  PartitionCache cache(ctx.cache_dir);
  const std::string key = CacheKey(ctx, dataset, partitioner->name(), k);
  double seconds = 0;
  if (auto cached = cache.Load(key, k, &seconds); cached.ok()) {
    if (CachedAssignmentValid(cached.value(), k, graph.num_edges(), key)) {
      EdgePartitioning parts;
      parts.k = k;
      parts.assignment = std::move(cached).value();
      parts.partitioning_seconds = seconds;
      if constexpr (check::ParanoidEnabled()) {
        if (Status st = check::ValidateEdgePartitioning(graph, parts);
            !st.ok()) {
          return st;
        }
      }
      return parts;
    }
  }
  WallTimer timer;
  Result<EdgePartitioning> result = [&] {
    obs::ScopedTimer phase("time/partition/" + partitioner->name());
    return partitioner->Partition(graph, k, ctx.seed);
  }();
  if (!result.ok()) return result.status();
  result.value().partitioning_seconds = timer.ElapsedSeconds();
  obs::RecordStructureBytes(
      "edge_assignment", result.value().assignment.size() * sizeof(PartitionId));
  // Cache write failures only cost future time, not correctness.
  (void)cache.Store(key, k, result.value().assignment,
                    result.value().partitioning_seconds);
  return result;
}

Result<VertexPartitioning> RunVertexPartitioner(const ExperimentContext& ctx,
                                                DatasetId dataset,
                                                const Graph& graph,
                                                const VertexSplit& split,
                                                VertexPartitionerId id,
                                                PartitionId k) {
  auto partitioner = MakeVertexPartitioner(id);
  PartitionCache cache(ctx.cache_dir);
  const std::string key = CacheKey(ctx, dataset, "v" + partitioner->name(), k);
  double seconds = 0;
  if (auto cached = cache.Load(key, k, &seconds); cached.ok()) {
    if (CachedAssignmentValid(cached.value(), k, graph.num_vertices(), key)) {
      VertexPartitioning parts;
      parts.k = k;
      parts.assignment = std::move(cached).value();
      parts.partitioning_seconds = seconds;
      if constexpr (check::ParanoidEnabled()) {
        if (Status st = check::ValidateVertexPartitioning(graph, parts);
            !st.ok()) {
          return st;
        }
      }
      return parts;
    }
  }
  WallTimer timer;
  Result<VertexPartitioning> result = [&] {
    obs::ScopedTimer phase("time/partition/" + partitioner->name());
    return partitioner->Partition(graph, split, k, ctx.seed);
  }();
  if (!result.ok()) return result.status();
  result.value().partitioning_seconds = timer.ElapsedSeconds();
  obs::RecordStructureBytes(
      "vertex_assignment",
      result.value().assignment.size() * sizeof(PartitionId));
  (void)cache.Store(key, k, result.value().assignment,
                    result.value().partitioning_seconds);
  return result;
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

Result<DistGnnGridResult> RunDistGnnGrid(const ExperimentContext& ctx,
                                         DatasetId dataset, PartitionId k) {
  Result<DatasetBundle> bundle = LoadDataset(ctx, dataset);
  if (!bundle.ok()) return bundle.status();
  const Graph& graph = bundle->graph;

  DistGnnGridResult result;
  result.dataset = dataset;
  result.k = k;
  result.grid = HyperParameterGrid(ctx, GnnArchitecture::kGraphSage);
  const ClusterSpec cluster = ctx.MakeCluster(static_cast<int>(k));

  for (EdgePartitionerId id : AllEdgePartitioners()) {
    auto partitioner = MakeEdgePartitioner(id);
    const std::string name = partitioner->name();
    Result<EdgePartitioning> parts =
        RunEdgePartitioner(ctx, dataset, graph, id, k);
    if (!parts.ok()) return parts.status();
    result.partitioners.push_back(name);
    result.partition_seconds[name] = parts->partitioning_seconds;
    result.metrics[name] = ComputeEdgePartitionMetrics(graph, *parts);
    result.workloads[name] = BuildDistGnnWorkload(graph, *parts);
    // Grid cells are independent pure functions of (workload, config);
    // evaluate them concurrently straight into their slots.
    const DistGnnWorkload& workload = result.workloads[name];
    auto& reports = result.reports[name];
    reports.resize(result.grid.size());
    ParallelFor(result.grid.size(), 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        reports[i] = SimulateDistGnnEpoch(workload, result.grid[i], cluster);
      }
    });
  }
  return result;
}

namespace {

// Flat uint64 encoding of an epoch profile for the blob cache.
std::vector<uint64_t> EncodeProfile(const DistDglEpochProfile& profile) {
  std::vector<uint64_t> blob;
  blob.push_back(profile.steps);
  blob.push_back(profile.workers);
  for (const auto& step : profile.profiles) {
    for (const MiniBatchProfile& mb : step) {
      blob.push_back(mb.seeds);
      blob.push_back(mb.input_vertices);
      blob.push_back(mb.local_input_vertices);
      blob.push_back(mb.remote_input_vertices);
      blob.push_back(mb.computation_edges);
      blob.push_back(mb.remote_sampling_requests);
      blob.push_back(mb.frontier_sizes.size());
      for (size_t f : mb.frontier_sizes) blob.push_back(f);
      blob.push_back(mb.hop_edges.size());
      for (size_t h : mb.hop_edges) blob.push_back(h);
    }
  }
  return blob;
}

Result<DistDglEpochProfile> DecodeProfile(const std::vector<uint64_t>& blob) {
  size_t pos = 0;
  auto next = [&]() -> uint64_t {
    return pos < blob.size() ? blob[pos++] : ~0ULL;
  };
  DistDglEpochProfile profile;
  profile.steps = next();
  profile.workers = static_cast<PartitionId>(next());
  if (profile.steps > 1e7 || profile.workers > kMaxPartitions) {
    return Status::Internal("corrupt profile blob header");
  }
  profile.profiles.resize(profile.steps);
  for (auto& step : profile.profiles) {
    step.resize(profile.workers);
    for (MiniBatchProfile& mb : step) {
      mb.seeds = next();
      mb.input_vertices = next();
      mb.local_input_vertices = next();
      mb.remote_input_vertices = next();
      mb.computation_edges = next();
      mb.remote_sampling_requests = next();
      uint64_t nf = next();
      if (nf > 64) return Status::Internal("corrupt profile blob");
      mb.frontier_sizes.resize(nf);
      for (auto& f : mb.frontier_sizes) f = next();
      uint64_t nh = next();
      if (nh > 64) return Status::Internal("corrupt profile blob");
      mb.hop_edges.resize(nh);
      for (auto& h : mb.hop_edges) h = next();
    }
  }
  if (pos != blob.size()) return Status::Internal("trailing profile data");
  return profile;
}

}  // namespace

Result<DistDglEpochProfile> ProfileWithCache(const ExperimentContext& ctx,
                                             DatasetId dataset,
                                             const Graph& graph,
                                             const VertexSplit& split,
                                             VertexPartitionerId id,
                                             PartitionId k, int num_layers,
                                             size_t global_batch_size) {
  auto partitioner = MakeVertexPartitioner(id);
  PartitionCache cache(ctx.cache_dir);
  std::ostringstream key;
  key << "profile-" << CacheKey(ctx, dataset, partitioner->name(), k) << "-L"
      << num_layers << "-b" << global_batch_size << "-"
      << ctx.network.CacheKeyTag();
  if (auto blob = cache.LoadBlob(key.str()); blob.ok()) {
    // A blob that passed the checksum but fails to decode or violates the
    // profile invariants means the *writer* was broken, not the disk — say
    // so instead of silently re-measuring.
    auto decoded = DecodeProfile(*blob);
    Status st = decoded.ok() ? check::ValidateProfile(*decoded)
                             : decoded.status();
    if (st.ok()) return decoded;
    std::fprintf(stderr,
                 "[gnnpart] cache/invalid-profile: entry '%s' rejected (%s); "
                 "recomputing\n",
                 key.str().c_str(), st.ToString().c_str());
  }
  Result<VertexPartitioning> parts =
      RunVertexPartitioner(ctx, dataset, graph, split, id, k);
  if (!parts.ok()) return parts.status();
  Result<DistDglEpochProfile> profile = [&] {
    obs::ScopedTimer phase("time/profile");
    return ProfileDistDglEpoch(
        graph, *parts, split, GnnConfig::DefaultFanouts(num_layers),
        global_batch_size, ctx.seed + static_cast<uint64_t>(num_layers));
  }();
  if (!profile.ok()) return profile.status();
  const std::vector<uint64_t> blob = EncodeProfile(*profile);
  obs::RecordStructureBytes("profile_blob", blob.size() * sizeof(uint64_t));
  (void)cache.StoreBlob(key.str(), blob);
  return profile;
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

Result<DistDglGridResult> RunDistDglGrid(const ExperimentContext& ctx,
                                         DatasetId dataset, PartitionId k,
                                         GnnArchitecture arch) {
  Result<DatasetBundle> bundle = LoadDataset(ctx, dataset);
  if (!bundle.ok()) return bundle.status();
  const Graph& graph = bundle->graph;
  const VertexSplit& split = bundle->split;

  DistDglGridResult result;
  result.dataset = dataset;
  result.k = k;
  result.arch = arch;
  result.grid = HyperParameterGrid(ctx, arch);
  const ClusterSpec cluster = ctx.MakeCluster(static_cast<int>(k));

  for (VertexPartitionerId id : AllVertexPartitioners()) {
    auto partitioner = MakeVertexPartitioner(id);
    const std::string name = partitioner->name();
    Result<VertexPartitioning> parts =
        RunVertexPartitioner(ctx, dataset, graph, split, id, k);
    if (!parts.ok()) return parts.status();
    result.partitioners.push_back(name);
    result.partition_seconds[name] = parts->partitioning_seconds;
    result.metrics[name] = ComputeVertexPartitionMetrics(graph, *parts, split);

    // Sampling profiles depend only on the layer count; one per L.
    auto& profiles = result.profiles[name];
    for (int layers : {2, 3, 4}) {
      Result<DistDglEpochProfile> profile = ProfileWithCache(
          ctx, dataset, graph, split, id, k, layers, ctx.global_batch_size);
      if (!profile.ok()) return profile.status();
      profiles.push_back(std::move(profile).value());
    }
    auto& reports = result.reports[name];
    reports.resize(result.grid.size());
    ParallelFor(result.grid.size(), 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        const GnnConfig& config = result.grid[i];
        const DistDglEpochProfile& profile =
            profiles[static_cast<size_t>(config.num_layers - 2)];
        reports[i] = SimulateDistDglEpoch(profile, config, cluster);
      }
    });
  }
  return result;
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
