#ifndef GNNPART_DYN_DRIVER_H_
#define GNNPART_DYN_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gnn/model_config.h"
#include "graph/graph.h"
#include "net/topology.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "sim/cluster.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {

namespace obs {
class EventLog;
}  // namespace obs

namespace dyn {

/// Which partitioner the dynamic run maintains. Edge partitioners drive the
/// DistGNN (full-batch, vertex-cut) pipeline; vertex partitioners drive the
/// DistDGL (mini-batch, edge-cut) pipeline — mirroring the static CLI's
/// `simulate` subcommand.
struct DynPartitionerSpec {
  bool vertex_mode = false;
  EdgePartitionerId edge = EdgePartitionerId::kRandom;
  VertexPartitionerId vertex = VertexPartitionerId::kRandom;
  /// Display name for tables and obs row prefixes, e.g. "HDRF" / "vFennel".
  std::string display;
};

/// Configuration of one dynamic run (DESIGN.md §12).
struct DynConfig {
  /// Growth batches after the initial snapshot. 0 = the full graph arrives
  /// at batch 0 and the run degenerates to one static interval.
  size_t growth_batches = 8;
  /// Fraction of edges in the initial snapshot (batch 0), in (0, 1].
  double initial_fraction = 0.5;
  /// Training epochs simulated per interval (>= 1). Epoch seconds are
  /// recorded per epoch and multiplied into the totals.
  size_t epochs_per_batch = 1;
  /// Period trigger: repartition every N growth batches. 0 = off.
  size_t repartition_every = 0;
  /// Quality trigger: repartition when the decayed quality (RF in edge
  /// mode, edge-cut ratio in vertex mode) exceeds `quality_threshold`
  /// times the post-(re)partition baseline. 0 = off.
  double quality_threshold = 0;
  /// Migration-penalty term of the ReFennel/ReLDG restreaming score
  /// (neighbor-score units added to a vertex's current partition).
  double stay_bonus = 0.5;
  /// Maximum restreaming passes per repartition event.
  int repartition_passes = 4;
  GnnConfig gnn;
  /// Cluster model; num_machines is overwritten with k by RunDynamic.
  ClusterSpec cluster;
  /// Fabric the training epochs *and* the migration flows are priced on.
  net::NetworkConfig network;
  uint64_t seed = 42;
  double train_fraction = 0.1;
  double validation_fraction = 0.1;
  /// When non-empty, per-interval and cumulative rows are published to
  /// gnnpart::obs under "<metrics_prefix>/..." (deterministic integer rows
  /// only; seconds go through det:false timers). Counters accumulate per
  /// process, so use one distinct prefix per run.
  std::string metrics_prefix;
};

/// One growth interval: arrivals applied, quality measured, optional
/// repartition + migration, then training epochs on the prefix graph.
struct DynInterval {
  size_t batch = 0;
  size_t arrived_edges = 0;
  size_t arrived_vertices = 0;
  /// RF (edge mode) or edge-cut ratio (vertex mode) after arrivals and any
  /// repartition of this interval.
  double quality = 0;
  /// Covered-vertex balance (edge mode) or vertex balance (vertex mode).
  double balance = 0;
  bool repartitioned = false;
  uint64_t moved_entities = 0;
  uint64_t replicas_created = 0;
  uint64_t migration_bytes = 0;
  double migration_seconds = 0;
  /// Seconds of ONE training epoch at this interval.
  double epoch_seconds = 0;
  double epoch_network_bytes = 0;
};

/// Result of a dynamic run. The final interval's full epoch report is kept
/// so tests can compare the degenerate run (growth 0, triggers off)
/// bit-exactly against the static pipeline; exactly one of
/// `distgnn`/`distdgl` is meaningful, selected by `vertex_mode`.
struct DynReport {
  bool vertex_mode = false;
  PartitionId k = 0;
  size_t growth_batches = 0;
  size_t epochs_per_batch = 1;
  std::vector<DynInterval> intervals;
  uint64_t repartitions = 0;
  uint64_t total_moved_entities = 0;
  uint64_t total_replicas_created = 0;
  uint64_t total_migration_bytes = 0;
  double total_migration_seconds = 0;
  /// Sum over intervals of epoch_seconds * epochs_per_batch.
  double total_epoch_seconds = 0;
  /// total_epoch_seconds + total_migration_seconds — the quantity
  /// bench_fig_dyn ranks trigger policies by.
  double total_cost_seconds = 0;
  double final_quality = 0;
  double final_balance = 0;
  DistGnnEpochReport distgnn;
  DistDglEpochReport distdgl;
};

/// Runs the decay-aware epoch loop: grow, incrementally assign, measure,
/// maybe repartition (pricing the diff through the fabric), then simulate
/// training epochs — once per batch, batch 0 being the initial snapshot.
/// Deterministic in (full, spec, k, config): bit-identical for every
/// --threads value and across repeated runs.
///
/// When `events` is non-null, the causal timeline (DESIGN.md §14) collects
/// one EpochEvents per batch (each on its own epoch-local BSP timeline)
/// plus run-scoped repartition records and migration bursts on the
/// cumulative cost timeline; a null log costs nothing.
Result<DynReport> RunDynamic(const Graph& full, const DynPartitionerSpec& spec,
                             PartitionId k, const DynConfig& config,
                             obs::EventLog* events = nullptr);

}  // namespace dyn
}  // namespace gnnpart

#endif  // GNNPART_DYN_DRIVER_H_
