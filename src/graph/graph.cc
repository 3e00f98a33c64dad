#include "graph/graph.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/check.h"

namespace gnnpart {

size_t Graph::MaxDegree() const {
  size_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

GraphBuilder::GraphBuilder(size_t num_vertices, bool directed)
    : num_vertices_(num_vertices), directed_(directed) {}

GraphBuilder::GraphBuilder(size_t num_vertices, bool directed,
                           std::vector<Edge> edges)
    : num_vertices_(num_vertices),
      directed_(directed),
      raw_edges_(std::move(edges)) {}

namespace {

/// Sorts `edges`, whose endpoints are below `n`, by (src, dst) with two
/// stable counting passes: sources are grouped by destination into a
/// half-width array, then scattered back into `edges` by source while
/// visiting destinations in ascending order.
void CountingSort(size_t n, std::vector<Edge>* edges) {
  std::vector<uint64_t> dst_at(n + 1, 0), src_at(n + 1, 0);
  for (const Edge& e : *edges) {
    ++dst_at[e.dst + 1];
    ++src_at[e.src + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    dst_at[v + 1] += dst_at[v];
    src_at[v + 1] += src_at[v];
  }
  std::vector<VertexId> src_by_dst(edges->size());
  for (const Edge& e : *edges) src_by_dst[dst_at[e.dst]++] = e.src;
  // dst_at[d] now ends d's run of src_by_dst.
  size_t i = 0;
  for (size_t d = 0; d < n; ++d) {
    for (; i < dst_at[d]; ++i) {
      (*edges)[src_at[src_by_dst[i]]++] = {src_by_dst[i],
                                           static_cast<VertexId>(d)};
    }
  }
}

}  // namespace

Result<Graph> GraphBuilder::Build(std::string name) {
  const size_t n = num_vertices_;
  for (const Edge& e : raw_edges_) {
    if (e.src >= n || e.dst >= n) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(e.src) + ", " +
          std::to_string(e.dst) + ") with |V|=" + std::to_string(n));
    }
  }

  // Canonicalize in place: drop self-loops; for undirected graphs order
  // endpoints. Note whether the edges already arrive strictly ascending
  // (anything this library wrote does), in which case they are sorted and
  // unique as they stand.
  Graph g;
  g.name_ = std::move(name);
  g.directed_ = directed_;
  std::vector<Edge>& edges = g.edges_;
  edges = std::move(raw_edges_);
  raw_edges_ = {};
  size_t m = 0;
  bool ascending = true;
  for (size_t i = 0; i < edges.size(); ++i) {
    Edge e = edges[i];
    if (e.src == e.dst) continue;
    if (!directed_ && e.src > e.dst) std::swap(e.src, e.dst);
    ascending = ascending && (m == 0 || edges[m - 1] < e);
    edges[m++] = e;
  }
  edges.resize(m);
  if (!ascending) {
    CountingSort(n, &edges);
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }

  // The offsets and the adjacency are allocated after any sort scratch is
  // freed, and the fill cursor after them, so no freed scratch block is
  // left between two of the graph's arrays: reloading a graph of the same
  // shape then reuses the blocks the previous one freed, and peak RSS does
  // not depend on how the heap happened to be laid out.
  std::vector<uint64_t>& offsets = g.offsets_;
  offsets.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.src + 1];
    ++offsets[e.dst + 1];
  }
  for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<VertexId>& adj = g.neighbors_;
  adj.resize(offsets[n]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  if (!directed_) {
    // Filling in canonical edge order lists v's smaller neighbours (edges
    // (u, v), ascending u) before its larger ones (edges (v, w), ascending
    // w): every neighbourhood comes out sorted and unique.
    for (const Edge& e : edges) {
      adj[cursor[e.src]++] = e.dst;
      adj[cursor[e.dst]++] = e.src;
    }
  } else {
    // v's out-neighbours are its run of the canonical edges; its
    // in-neighbours fill the tail of its slot range, ascending. Merging the
    // two runs drops reciprocal arcs; the write position never passes the
    // unread in-neighbours, so the merge compacts the array in place.
    for (const Edge& e : edges) ++cursor[e.src];
    for (const Edge& e : edges) adj[cursor[e.dst]++] = e.src;
    cursor = {};
    uint64_t write = 0;
    const Edge* out = edges.data();
    const Edge* const out_last = out + edges.size();
    for (size_t v = 0; v < n; ++v) {
      const Edge* out_end = out;
      while (out_end != out_last && out_end->src == v) ++out_end;
      uint64_t in = offsets[v] + static_cast<uint64_t>(out_end - out);
      const uint64_t in_end = offsets[v + 1];
      offsets[v] = write;
      while (out != out_end && in != in_end) {
        const VertexId a = out->dst, b = adj[in];
        adj[write++] = std::min(a, b);
        out += a <= b;
        in += b <= a;
      }
      for (; out != out_end; ++out) adj[write++] = out->dst;
      while (in != in_end) adj[write++] = adj[in++];
    }
    offsets[n] = write;
    adj.resize(write);
    adj.shrink_to_fit();
  }

  GNNPART_CHECK_CHEAP(offsets.size() == n + 1,
                      "builder produced a malformed offset table");
  GNNPART_CHECK_CHEAP(offsets.back() == adj.size(),
                      "builder offset table does not cover the adjacency");
  if constexpr (check::ParanoidEnabled()) {
    // Self-audit of the CSR contract the rest of the library relies on
    // (sorted, unique, self-loop-free neighbourhoods).
    for (VertexId v = 0; v < n; ++v) {
      auto nbrs = g.Neighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        GNNPART_CHECK_PARANOID(nbrs[i] != v,
                               "builder kept a self-loop on vertex " +
                                   std::to_string(v));
        GNNPART_CHECK_PARANOID(
            i == 0 || nbrs[i - 1] < nbrs[i],
            "builder produced an unsorted or duplicate adjacency for "
            "vertex " +
                std::to_string(v));
      }
    }
  }
  return g;
}

Graph Graph::FromRawPartsForTest(std::string name, bool directed,
                                 std::vector<uint64_t> offsets,
                                 std::vector<VertexId> neighbors,
                                 std::vector<Edge> edges) {
  Graph g;
  g.name_ = std::move(name);
  g.directed_ = directed;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  g.edges_ = std::move(edges);
  return g;
}

}  // namespace gnnpart
