#include "dyn/driver.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "check/validators.h"
#include "common/rng.h"
#include "dyn/migrate.h"
#include "dyn/stream.h"
#include "gen/generators.h"
#include "graph/split.h"
#include "metrics/partition_metrics.h"
#include "net/flowsim.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "partition/vertex/fennel.h"
#include "partition/vertex/reldg.h"
#include "partition/vertex/streaming.h"

namespace gnnpart {
namespace dyn {
namespace {

// Migration byte prices. An edge record is its two endpoints plus a 64-bit
// payload slot; a vertex record is its feature vector plus a 64-bit
// label/id word; a replica copy ships the state a replicated vertex holds
// in full-batch training (feature + per-layer representations).
constexpr uint64_t kEdgeRecordBytes = 2 * sizeof(VertexId) + 8;

uint64_t VertexRecordBytes(const GnnConfig& gnn) {
  return gnn.feature_size * sizeof(float) + 8;
}

// "batch%03zu" without snprintf, whose truncation warning a 20-digit
// size_t trips.
std::string BatchTag(size_t b) {
  std::string digits = std::to_string(b);
  if (digits.size() < 3) digits.insert(0, 3 - digits.size(), '0');
  return "batch" + digits;
}

uint64_t Ppm(double x) {
  return static_cast<uint64_t>(std::llround(x * 1e6));
}

// Greedy replica-affine placement of newly arrived edges, in stream order:
// prefer partitions already holding a replica of either endpoint, then the
// least-loaded partition, then the lowest id. Serial by design — each
// decision feeds the next edge's replica masks.
void AssignArrivingEdges(const Graph& full, const EdgeStream& stream, size_t b,
                         PartitionId k, std::vector<PartitionId>* assignment,
                         std::vector<uint64_t>* masks,
                         std::vector<uint64_t>* load) {
  for (size_t i = stream.batch_begin[b]; i < stream.batch_begin[b + 1]; ++i) {
    const EdgeId e = stream.order[i];
    const Edge& edge = full.edge(e);
    const uint64_t mu = (*masks)[edge.src];
    const uint64_t mv = (*masks)[edge.dst];
    PartitionId best = 0;
    int best_score = -1;
    for (PartitionId p = 0; p < k; ++p) {
      const int score = static_cast<int>((mu >> p) & 1ULL) +
                        static_cast<int>((mv >> p) & 1ULL);
      if (score > best_score ||
          (score == best_score && (*load)[p] < (*load)[best])) {
        best_score = score;
        best = p;
      }
    }
    (*assignment)[e] = best;
    (*masks)[edge.src] |= 1ULL << best;
    (*masks)[edge.dst] |= 1ULL << best;
    ++(*load)[best];
  }
}

// LDG-style placement of vertices that arrive with batch `b` (first incident
// edge), in first-appearance stream order. Arriving vertices already carry a
// placeholder assignment from the batch-0 static partition; re-placing them
// here is migration-exempt because no state existed yet. Already-arrived
// vertices are never touched — that is the continuity invariant.
void PlaceArrivingVertices(const Graph& full, const EdgeStream& stream,
                           size_t b, PartitionId k, double slack,
                           std::vector<uint8_t>* arrived,
                           std::vector<PartitionId>* assignment,
                           std::vector<uint64_t>* load,
                           size_t* arrived_count) {
  std::vector<VertexId> newcomers;
  for (size_t i = stream.batch_begin[b]; i < stream.batch_begin[b + 1]; ++i) {
    const Edge& edge = full.edge(stream.order[i]);
    for (VertexId w : {edge.src, edge.dst}) {
      if (!(*arrived)[w]) {
        (*arrived)[w] = 1;
        newcomers.push_back(w);
      }
    }
  }
  *arrived_count += newcomers.size();
  const LdgObjective objective{slack * static_cast<double>(*arrived_count) /
                               static_cast<double>(k)};
  // Count only materialized neighbors; a newcomer later in this batch
  // contributes its placeholder assignment, which is deterministic.
  const auto materialized = [arrived](VertexId u) {
    return (*arrived)[u] != 0;
  };
  std::vector<uint32_t> count(k, 0);
  uint64_t score_evals = 0;  // not published: dyn counts no placement work
  for (VertexId w : newcomers) {
    CountNeighbourParts(full, w, *assignment, materialized, &count);
    const PartitionId best = PlaceBest(objective, count, *load, &score_evals);
    (*assignment)[w] = best;
    ++(*load)[best];
  }
}

std::vector<uint64_t> ArrivedVertexLoads(
    const std::vector<PartitionId>& assignment,
    const std::vector<uint8_t>& arrived, PartitionId k) {
  std::vector<uint64_t> load(k, 0);
  for (size_t v = 0; v < assignment.size(); ++v) {
    if (arrived[v]) ++load[assignment[v]];
  }
  return load;
}

}  // namespace

Result<DynReport> RunDynamic(const Graph& full, const DynPartitionerSpec& spec,
                             PartitionId k, const DynConfig& config,
                             obs::EventLog* events) {
  if (k == 0 || k > kMaxPartitions) {
    return Status::InvalidArgument("dyn: k outside [1, kMaxPartitions]");
  }
  if (config.epochs_per_batch == 0) {
    return Status::InvalidArgument("dyn: epochs_per_batch must be >= 1");
  }
  const size_t n = full.num_vertices();
  const size_t m = full.num_edges();

  Result<EdgeStream> stream_res = [&] {
    obs::ScopedTimer timer("time/dyn/stream");
    return BuildEdgeStream(full, config.growth_batches,
                           config.initial_fraction, config.seed);
  }();
  GNNPART_RETURN_NOT_OK(stream_res.status());
  const EdgeStream& stream = *stream_res;
  GNNPART_RETURN_NOT_OK(check::ValidateEdgeStream(stream, m));

  GnnConfig gnn = config.gnn;
  if (gnn.fanouts.empty()) {
    gnn.fanouts = GnnConfig::DefaultFanouts(gnn.num_layers);
  }
  ClusterSpec cluster = config.cluster;
  cluster.num_machines = static_cast<int>(k);
  const net::Fabric fabric(config.network, static_cast<int>(k));
  net::LinkUsage usage;
  usage.EnsureShape(fabric);
  const VertexSplit split = VertexSplit::MakeRandom(
      n, config.train_fraction, config.validation_fraction, config.seed);
  const uint64_t replica_bytes =
      static_cast<uint64_t>(gnn.VertexStateBytes());
  const uint64_t vertex_bytes = VertexRecordBytes(gnn);

  std::unique_ptr<EdgePartitioner> edge_partitioner;
  std::unique_ptr<VertexPartitioner> vertex_partitioner;
  if (spec.vertex_mode) {
    vertex_partitioner = MakeVertexPartitioner(spec.vertex);
  } else {
    edge_partitioner = MakeEdgePartitioner(spec.edge);
  }

  DynReport report;
  report.vertex_mode = spec.vertex_mode;
  report.k = k;
  report.growth_batches = config.growth_batches;
  report.epochs_per_batch = config.epochs_per_batch;

  // Full-id-space state. Edge mode: per-edge assignment (kInvalidPartition =
  // unarrived) + per-vertex replica masks + per-partition edge loads.
  // Vertex mode: per-vertex assignment (complete from batch 0) + arrived
  // flags + per-partition arrived-vertex loads.
  std::vector<PartitionId> edge_assignment;
  std::vector<uint8_t> edge_arrived;
  std::vector<uint64_t> masks;
  std::vector<uint64_t> edge_load;
  std::vector<PartitionId> vertex_assignment;
  std::vector<uint8_t> vertex_arrived;
  std::vector<uint64_t> vertex_load;
  size_t arrived_vertex_count = 0;
  double baseline_quality = 0;
  double trace_cursor = 0;

  const std::string prefix_rows =
      config.metrics_prefix.empty() ? "" : config.metrics_prefix + "/";

  for (size_t b = 0; b < stream.num_batches(); ++b) {
    DynInterval interval;
    interval.batch = b;
    bool repartition_allowed = b > 0;

    // The prefix graph after this batch. Prefix edge i is full edge
    // arrived_edges[i], so assignments scatter back to full-graph ids.
    std::vector<EdgeId> arrived_edges;
    Result<Graph> prefix_res = [&] {
      obs::ScopedTimer timer("time/dyn/prefix");
      arrived_edges = ArrivedEdges(stream, b);
      return InducedEdgeSubgraph(full, arrived_edges);
    }();
    GNNPART_RETURN_NOT_OK(prefix_res.status());
    const Graph& prefix = *prefix_res;
    interval.arrived_edges = arrived_edges.size();

    if (b == 0) {
      // Initial snapshot: one static partition, exactly the static pipeline
      // when growth_batches == 0.
      if (spec.vertex_mode) {
        Result<VertexPartitioning> parts = [&] {
          obs::ScopedTimer timer("time/dyn/partition");
          return vertex_partitioner->Partition(prefix, split, k, config.seed);
        }();
        GNNPART_RETURN_NOT_OK(parts.status());
        vertex_assignment = parts->assignment;
        vertex_arrived.assign(n, 0);
        for (const Edge& e : prefix.edges()) {
          vertex_arrived[e.src] = 1;
          vertex_arrived[e.dst] = 1;
        }
        arrived_vertex_count = 0;
        for (uint8_t a : vertex_arrived) arrived_vertex_count += a;
        vertex_load = ArrivedVertexLoads(vertex_assignment, vertex_arrived, k);
      } else {
        Result<EdgePartitioning> parts = [&] {
          obs::ScopedTimer timer("time/dyn/partition");
          return edge_partitioner->Partition(prefix, k, config.seed);
        }();
        GNNPART_RETURN_NOT_OK(parts.status());
        edge_assignment.assign(m, kInvalidPartition);
        edge_arrived.assign(m, 0);
        for (size_t i = 0; i < arrived_edges.size(); ++i) {
          edge_assignment[arrived_edges[i]] = parts->assignment[i];
          edge_arrived[arrived_edges[i]] = 1;
        }
        masks = ComputeReplicaMasks(prefix, *parts);
        edge_load = parts->EdgeCounts();
      }
    } else if (spec.vertex_mode) {
      const std::vector<PartitionId> before = vertex_assignment;
      const std::vector<uint8_t> frozen = vertex_arrived;
      {
        obs::ScopedTimer timer("time/dyn/partition");
        PlaceArrivingVertices(full, stream, b, k, 1.05, &vertex_arrived,
                              &vertex_assignment, &vertex_load,
                              &arrived_vertex_count);
      }
      GNNPART_RETURN_NOT_OK(check::ValidateAssignmentContinuity(
          before, vertex_assignment, frozen));
    } else {
      const std::vector<PartitionId> before = edge_assignment;
      const std::vector<uint8_t> frozen = edge_arrived;
      {
        obs::ScopedTimer timer("time/dyn/partition");
        AssignArrivingEdges(full, stream, b, k, &edge_assignment, &masks,
                            &edge_load);
      }
      for (size_t i = stream.batch_begin[b]; i < stream.batch_begin[b + 1];
           ++i) {
        edge_arrived[stream.order[i]] = 1;
      }
      GNNPART_RETURN_NOT_OK(check::ValidateAssignmentContinuity(
          before, edge_assignment, frozen));
    }

    EdgePartitioning eparts;
    VertexPartitioning vparts;
    EdgePartitionMetrics edge_metrics;
    auto refresh_parts = [&]() {
      if (spec.vertex_mode) {
        vparts.k = k;
        vparts.assignment = vertex_assignment;
      } else {
        eparts.k = k;
        eparts.assignment.resize(arrived_edges.size());
        for (size_t i = 0; i < arrived_edges.size(); ++i) {
          eparts.assignment[i] = edge_assignment[arrived_edges[i]];
        }
      }
    };
    auto measure = [&]() {
      if (spec.vertex_mode) {
        VertexPartitionMetrics mv =
            ComputeVertexPartitionMetrics(prefix, vparts, split);
        interval.quality = mv.edge_cut_ratio;
        interval.balance = mv.vertex_balance;
      } else {
        edge_metrics = ComputeEdgePartitionMetrics(prefix, eparts);
        interval.quality = edge_metrics.replication_factor;
        interval.balance = edge_metrics.vertex_balance;
      }
    };
    refresh_parts();
    measure();
    if (spec.vertex_mode) {
      interval.arrived_vertices = arrived_vertex_count;
    } else {
      size_t covered = 0;
      for (uint64_t mask : masks) covered += mask != 0;
      interval.arrived_vertices = covered;
    }

    // Repartition triggers: fixed period, or decayed quality exceeding the
    // post-(re)partition baseline by the configured ratio.
    const bool period_hit = config.repartition_every > 0 &&
                            b % config.repartition_every == 0;
    const bool threshold_hit =
        config.quality_threshold > 0 && baseline_quality > 0 &&
        interval.quality > baseline_quality * config.quality_threshold;
    if (repartition_allowed && (period_hit || threshold_hit)) {
      const uint64_t event_seed = HashCombine64(config.seed, b);
      if (spec.vertex_mode) {
        Result<VertexPartitioning> parts = [&] {
          obs::ScopedTimer timer("time/dyn/partition");
          return spec.vertex == VertexPartitionerId::kFennel
                     ? FennelPartitioner().Repartition(
                           prefix, split, k, event_seed, vertex_assignment,
                           config.stay_bonus, config.repartition_passes)
                 : spec.vertex == VertexPartitionerId::kReldg
                     ? ReldgPartitioner().Repartition(
                           prefix, split, k, event_seed, vertex_assignment,
                           config.stay_bonus, config.repartition_passes)
                     : vertex_partitioner->Partition(prefix, split, k,
                                                     event_seed);
        }();
        GNNPART_RETURN_NOT_OK(parts.status());
        MigrationPlan plan =
            DiffAssignments(vertex_assignment, parts->assignment,
                            vertex_arrived, k, vertex_bytes);
        GNNPART_RETURN_NOT_OK(check::ValidateMigrationPlan(
            vertex_assignment, parts->assignment, vertex_arrived,
            vertex_bytes, {}, {}, 0, plan));
        interval.migration_seconds = PriceMigration(fabric, plan, &usage);
        interval.moved_entities = plan.moved_entities;
        interval.migration_bytes = plan.total_bytes;
        vertex_assignment = parts->assignment;
        vertex_load = ArrivedVertexLoads(vertex_assignment, vertex_arrived, k);
      } else {
        Result<EdgePartitioning> parts = [&] {
          obs::ScopedTimer timer("time/dyn/partition");
          return edge_partitioner->Partition(prefix, k, event_seed);
        }();
        GNNPART_RETURN_NOT_OK(parts.status());
        std::vector<PartitionId> after(m, kInvalidPartition);
        for (size_t i = 0; i < arrived_edges.size(); ++i) {
          after[arrived_edges[i]] = parts->assignment[i];
        }
        const std::vector<uint64_t> masks_after =
            ComputeReplicaMasks(prefix, *parts);
        MigrationPlan plan = DiffAssignments(edge_assignment, after,
                                             edge_arrived, k,
                                             kEdgeRecordBytes);
        AddReplicaDiff(masks, masks_after, replica_bytes, &plan);
        GNNPART_RETURN_NOT_OK(check::ValidateMigrationPlan(
            edge_assignment, after, edge_arrived, kEdgeRecordBytes, masks,
            masks_after, replica_bytes, plan));
        interval.migration_seconds = PriceMigration(fabric, plan, &usage);
        interval.moved_entities = plan.moved_entities;
        interval.replicas_created = plan.replicas_created;
        interval.migration_bytes = plan.total_bytes;
        edge_assignment = std::move(after);
        masks = masks_after;
        edge_load = parts->EdgeCounts();
      }
      interval.repartitioned = true;
      ++report.repartitions;
      refresh_parts();
      measure();
    }
    if (b == 0 || interval.repartitioned) {
      baseline_quality = interval.quality;
    }

    // Training epochs on the prefix. The report is per epoch; totals weight
    // it by epochs_per_batch.
    {
      obs::ScopedTimer timer("time/dyn/simulate");
      if (spec.vertex_mode) {
        const uint64_t profile_seed =
            b == 0 ? config.seed : HashCombine64(config.seed, b);
        Result<DistDglEpochProfile> profile = ProfileDistDglEpoch(
            prefix, vparts, split, gnn.fanouts, gnn.global_batch_size,
            profile_seed);
        GNNPART_RETURN_NOT_OK(profile.status());
        report.distdgl = SimulateDistDglEpoch(*profile, gnn, cluster, &fabric,
                                              &usage, events);
        interval.epoch_seconds = report.distdgl.epoch_seconds;
        interval.epoch_network_bytes = report.distdgl.total_network_bytes;
      } else {
        const DistGnnWorkload workload =
            BuildDistGnnWorkload(prefix, edge_metrics);
        report.distgnn = SimulateDistGnnEpoch(workload, gnn, cluster, &fabric,
                                              &usage, events);
        interval.epoch_seconds = report.distgnn.epoch_seconds;
        interval.epoch_network_bytes = report.distgnn.total_network_bytes;
      }
    }

    if (events != nullptr) {
      if (interval.repartitioned) {
        // Period wins the label when both triggers fired this batch.
        events->AddRepartition(b, period_hit ? "period" : "quality",
                               interval.moved_entities,
                               interval.replicas_created,
                               static_cast<double>(interval.migration_bytes));
        events->AddMigration(b, trace_cursor,
                             trace_cursor + interval.migration_seconds,
                             static_cast<double>(interval.migration_bytes));
      }
      // Migration, then the batch's epochs, on the cumulative cost timeline.
      trace_cursor += interval.migration_seconds;
      trace_cursor += interval.epoch_seconds *
                      static_cast<double>(config.epochs_per_batch);
    }

    if (!prefix_rows.empty()) {
      const std::string tag = prefix_rows + BatchTag(b);
      obs::Count(tag + "/quality_ppm", Ppm(interval.quality), "ppm");
      obs::Count(tag + "/arrived_edges", interval.arrived_edges, "edges");
      if (interval.repartitioned) {
        obs::Count(tag + "/migration_bytes", interval.migration_bytes,
                   "bytes");
        obs::Count(tag + "/moved_entities", interval.moved_entities,
                   "entities");
      }
    }

    report.total_moved_entities += interval.moved_entities;
    report.total_replicas_created += interval.replicas_created;
    report.total_migration_bytes += interval.migration_bytes;
    report.total_migration_seconds += interval.migration_seconds;
    report.total_epoch_seconds +=
        interval.epoch_seconds * static_cast<double>(config.epochs_per_batch);
    report.final_quality = interval.quality;
    report.final_balance = interval.balance;
    report.intervals.push_back(std::move(interval));
  }

  report.total_cost_seconds =
      report.total_epoch_seconds + report.total_migration_seconds;

  if (!prefix_rows.empty()) {
    obs::Count(prefix_rows + "repartitions", report.repartitions, "events");
    obs::Count(prefix_rows + "moved_entities", report.total_moved_entities,
               "entities");
    obs::Count(prefix_rows + "replicas_created",
               report.total_replicas_created, "replicas");
    obs::Count(prefix_rows + "migration_bytes", report.total_migration_bytes,
               "bytes");
    obs::Count(prefix_rows + "final_quality_ppm", Ppm(report.final_quality),
               "ppm");
    obs::Count(prefix_rows + "final_balance_ppm", Ppm(report.final_balance),
               "ppm");
    obs::RecordSeconds(prefix_rows + "epoch_seconds",
                       report.total_epoch_seconds);
    obs::RecordSeconds(prefix_rows + "migration_seconds",
                       report.total_migration_seconds);
  }
  return report;
}

}  // namespace dyn
}  // namespace gnnpart
