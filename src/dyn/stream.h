#ifndef GNNPART_DYN_STREAM_H_
#define GNNPART_DYN_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace gnnpart {
namespace dyn {

/// Timestamped arrival schedule over a generated graph's canonical edges
/// (DESIGN.md §12). The *final* graph is fixed up front — generated by
/// src/gen/ as usual — and the stream assigns every canonical edge an
/// arrival batch plus an arrival order within its batch. Batch 0 is the
/// initial snapshot (a sizeable fraction of the edges, so partitioners
/// start from a real graph, not from nothing); batches 1..growth_batches
/// are the growth steps. With growth_batches == 0 the whole graph arrives
/// in batch 0 and the dynamic pipeline degenerates to the static one.
///
/// Determinism: which edges land in which batch comes from one shuffle of
/// a sequential Rng(seed); the arrival order *within* each batch is then
/// re-drawn from that batch's own ChunkRng stream via ShardMap, so the
/// schedule is bit-identical for every --threads value.
struct EdgeStream {
  size_t growth_batches = 0;
  /// Arrival order: a permutation of [0, num_scheduled_edges). order[i] is
  /// the canonical EdgeId of the i-th arriving edge.
  std::vector<EdgeId> order;
  /// Batch boundaries into `order`, size growth_batches + 2: batch b covers
  /// order[batch_begin[b], batch_begin[b+1]).
  std::vector<size_t> batch_begin;

  /// Number of batches, counting the initial snapshot as batch 0.
  size_t num_batches() const { return batch_begin.empty() ? 0 : batch_begin.size() - 1; }
  /// Edges arrived once batch `b` has been applied.
  size_t arrived_after(size_t b) const { return batch_begin[b + 1]; }
};

/// Builds an arrival schedule for all edges of `full`. `initial_fraction`
/// in (0, 1] is the share of edges in batch 0 (at least one edge; the rest
/// is tiled over the growth batches via ShardRange, so batch sizes are a
/// pure function of (num_edges, growth_batches)). Deterministic in `seed`.
Result<EdgeStream> BuildEdgeStream(const Graph& full, size_t growth_batches,
                                   double initial_fraction, uint64_t seed);

/// Sorted canonical EdgeIds of every edge arrived once batch `b` has been
/// applied. Because canonical edge lists are sorted, element i of this list
/// is exactly edge i of `InducedEdgeSubgraph(full, list)`, the prefix graph
/// (same vertex-id universe; unarrived vertices are isolated). A linear
/// mark-and-scan over the m edge ids, no sort.
std::vector<EdgeId> ArrivedEdges(const EdgeStream& stream, size_t b);

}  // namespace dyn
}  // namespace gnnpart

#endif  // GNNPART_DYN_STREAM_H_
