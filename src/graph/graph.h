#ifndef GNNPART_GRAPH_GRAPH_H_
#define GNNPART_GRAPH_GRAPH_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace gnnpart {

/// Immutable graph in CSR form.
///
/// A Graph always exposes a *symmetrized* adjacency (every edge visible from
/// both endpoints, self-loops removed, parallel edges deduplicated) plus the
/// canonical edge list that partitioners consume:
///   * undirected graphs: each edge stored once with src <= dst;
///   * directed graphs: each distinct (src, dst) arc stored once, but the
///     adjacency still contains both directions, matching how the study's
///     partitioners and samplers treat directed inputs.
class Graph {
 public:
  Graph() = default;

  size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t num_edges() const { return edges_.size(); }
  bool directed() const { return directed_; }
  const std::string& name() const { return name_; }

  /// Symmetrized neighbourhood of v (sorted, unique, no self-loop).
  std::span<const VertexId> Neighbors(VertexId v) const {
    // Pointer arithmetic, not &neighbors_[end]: the last vertex's end is
    // one past the array, which operator[] must not index.
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// Symmetrized degree of v.
  size_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Canonical edge list.
  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(EdgeId e) const { return edges_[e]; }

  /// Mean symmetrized degree (2|E|/|V| for undirected graphs).
  double MeanDegree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(neighbors_.size()) /
                     static_cast<double>(num_vertices());
  }

  /// Maximum symmetrized degree.
  size_t MaxDegree() const;

  /// True if {u, v} is an edge (binary search over u's neighbourhood).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Rough resident-memory estimate of this structure in bytes.
  size_t MemoryBytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           neighbors_.size() * sizeof(VertexId) + edges_.size() * sizeof(Edge);
  }

  /// Test-only escape hatch: assembles a Graph from raw CSR pieces with no
  /// normalization or validation, so validator tests can fabricate invalid
  /// structures (check/validators.h). Production code must go through
  /// GraphBuilder, which enforces the class invariants.
  static Graph FromRawPartsForTest(std::string name, bool directed,
                                   std::vector<uint64_t> offsets,
                                   std::vector<VertexId> neighbors,
                                   std::vector<Edge> edges);

 private:
  friend class GraphBuilder;

  std::string name_;
  bool directed_ = false;
  std::vector<uint64_t> offsets_;    // size |V|+1
  std::vector<VertexId> neighbors_;  // size = sum of symmetrized degrees
  std::vector<Edge> edges_;          // canonical edge list
};

/// Accumulates edges and finalizes them into an immutable Graph. The builder
/// removes self-loops and duplicate edges (both (u,v) and (v,u) for
/// undirected graphs).
class GraphBuilder {
 public:
  /// num_vertices fixes the vertex-id universe [0, num_vertices).
  GraphBuilder(size_t num_vertices, bool directed);
  /// Adopts `edges` as the pending edges, as if each had been added with
  /// AddEdge (the readers parse straight into this vector).
  GraphBuilder(size_t num_vertices, bool directed, std::vector<Edge> edges);

  /// Appends an edge. Out-of-range endpoints are rejected at Build() time.
  void AddEdge(VertexId src, VertexId dst) { raw_edges_.push_back({src, dst}); }

  void Reserve(size_t num_edges) { raw_edges_.reserve(num_edges); }

  size_t pending_edges() const { return raw_edges_.size(); }

  /// Validates, dedups and assembles the CSR structure. The builder is left
  /// empty afterwards. Canonicalizes in place, sorts with a counting sort
  /// (skipped when the edges already arrive in canonical order) and fills
  /// the adjacency in canonical edge order; it never holds two edge lists
  /// (DESIGN.md §4, "Ingest in flat passes").
  Result<Graph> Build(std::string name = "");

 private:
  size_t num_vertices_;
  bool directed_;
  std::vector<Edge> raw_edges_;
};

}  // namespace gnnpart

#endif  // GNNPART_GRAPH_GRAPH_H_
