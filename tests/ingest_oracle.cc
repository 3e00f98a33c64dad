#include "ingest_oracle.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

namespace gnnpart {
namespace oracle {

Result<Graph> BuildGraph(size_t num_vertices, bool directed,
                         std::vector<Edge> raw_edges, std::string name) {
  for (const Edge& e : raw_edges) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(e.src) + ", " +
          std::to_string(e.dst) + ") with |V|=" + std::to_string(num_vertices));
    }
  }

  // Canonicalize: drop self-loops; for undirected graphs order endpoints.
  std::vector<Edge> edges;
  edges.reserve(raw_edges.size());
  for (const Edge& e : raw_edges) {
    if (e.src == e.dst) continue;
    if (!directed && e.src > e.dst) {
      edges.push_back({e.dst, e.src});
    } else {
      edges.push_back(e);
    }
  }
  raw_edges.clear();
  raw_edges.shrink_to_fit();

  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<uint64_t> degree(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  std::vector<uint64_t> offsets(num_vertices + 1, 0);
  for (size_t v = 0; v < num_vertices; ++v) {
    offsets[v + 1] = offsets[v] + degree[v];
  }
  std::vector<VertexId> neighbors(offsets[num_vertices]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    neighbors[cursor[e.src]++] = e.dst;
    neighbors[cursor[e.dst]++] = e.src;
  }
  // Sort + dedup each neighbourhood (dedup handles directed reciprocal arcs).
  uint64_t write = 0;
  std::vector<uint64_t> new_offsets(num_vertices + 1, 0);
  for (size_t v = 0; v < num_vertices; ++v) {
    auto begin = neighbors.begin() + static_cast<int64_t>(offsets[v]);
    auto end = neighbors.begin() + static_cast<int64_t>(offsets[v + 1]);
    std::sort(begin, end);
    auto last = std::unique(begin, end);
    new_offsets[v] = write;
    for (auto it = begin; it != last; ++it) {
      neighbors[write++] = *it;
    }
  }
  new_offsets[num_vertices] = write;
  neighbors.resize(write);
  return Graph::FromRawPartsForTest(std::move(name), directed,
                                    std::move(new_offsets),
                                    std::move(neighbors), std::move(edges));
}

Result<Graph> ParseEdgeStream(std::istream& in, bool directed,
                              size_t num_vertices) {
  std::vector<Edge> edges;
  VertexId max_id = 0;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) {
      return Status::IoError("malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
      // Extraction wraps "-1" to 2^64 - 1; name the real fault.
      std::istringstream tokens(line);
      std::string a, b;
      tokens >> a >> b;
      const bool negative = a[0] == '-' || b[0] == '-';
      return Status::OutOfRange(
          std::string(negative ? "negative vertex id" : "vertex id too large") +
          " at line " + std::to_string(line_no));
    }
    edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
    max_id = std::max({max_id, static_cast<VertexId>(u),
                       static_cast<VertexId>(v)});
  }
  size_t n = num_vertices;
  if (n == 0) n = edges.empty() ? 0 : static_cast<size_t>(max_id) + 1;
  return BuildGraph(n, directed, std::move(edges));
}

Result<Graph> ParseEdgeList(const std::string& text, bool directed,
                            size_t num_vertices) {
  std::istringstream in(text);
  return ParseEdgeStream(in, directed, num_vertices);
}

std::string GraphDiff(const Graph& got, const Graph& want) {
  if (got.num_vertices() != want.num_vertices()) {
    return "num_vertices " + std::to_string(got.num_vertices()) + " vs " +
           std::to_string(want.num_vertices());
  }
  if (got.name() != want.name()) {
    return "name '" + got.name() + "' vs '" + want.name() + "'";
  }
  if (got.directed() != want.directed()) return "directed differs";
  if (got.edges() != want.edges()) {
    return "edges differ (" + std::to_string(got.num_edges()) + " vs " +
           std::to_string(want.num_edges()) + ")";
  }
  for (VertexId v = 0; v < got.num_vertices(); ++v) {
    const auto a = got.Neighbors(v);
    const auto b = want.Neighbors(v);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      return "Neighbors(" + std::to_string(v) + ") differ";
    }
  }
  return "";
}

std::string ResultDiff(const Result<Graph>& got, const Result<Graph>& want) {
  if (got.ok() && want.ok()) return GraphDiff(*got, *want);
  std::ostringstream out;
  if (got.ok() != want.ok()) {
    out << "ok-ness differs: got " << (got.ok() ? "OK" : got.status().ToString())
        << ", want " << (want.ok() ? "OK" : want.status().ToString());
  } else if (got.status().code() != want.status().code() ||
             got.status().message() != want.status().message()) {
    out << "status differs: got " << got.status() << ", want "
        << want.status();
  }
  return out.str();
}

}  // namespace oracle
}  // namespace gnnpart
