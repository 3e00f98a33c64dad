#ifndef GNNPART_PARTITION_INCIDENCE_H_
#define GNNPART_PARTITION_INCIDENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace gnnpart {

/// Adjacency entry carrying the canonical edge id, so partitioners can
/// assign the edge they traverse.
struct IncidentEdge {
  VertexId neighbor;
  EdgeId edge;
};

/// CSR incidence structure over the canonical edge list: for each vertex,
/// the list of (neighbor, edge id) pairs of all incident canonical edges.
/// Each canonical edge appears twice (once per endpoint).
class IncidenceList {
 public:
  explicit IncidenceList(const Graph& graph);

  /// Incidence restricted to a subset of the canonical edges (a split-merge
  /// shard's sub-stream). Entries are built in ascending edge-id order
  /// regardless of the listing order of `subset`, so the structure depends
  /// only on the subset's *contents*; with subset = [0, m) it is identical
  /// to IncidenceList(graph).
  IncidenceList(const Graph& graph, const std::vector<EdgeId>& subset);

  std::span<const IncidentEdge> Incident(VertexId v) const {
    // Pointer arithmetic: the last vertex's end is one past the array (see
    // Graph::Neighbors).
    return {entries_.data() + offsets_[v], entries_.data() + offsets_[v + 1]};
  }

  /// Incident canonical-edge count (>= Graph::Degree for directed graphs
  /// with reciprocal arcs).
  size_t IncidentCount(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

 private:
  std::vector<uint64_t> offsets_;
  std::vector<IncidentEdge> entries_;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_INCIDENCE_H_
