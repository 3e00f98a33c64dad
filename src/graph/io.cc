#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace gnnpart {
namespace {

constexpr uint64_t kBinaryMagic = 0x474e4e5047525048ULL;  // "GNNPGRPH"
constexpr uint32_t kBinaryVersion = 1;

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
  GraphBuilder builder(n, directed);
  builder.Reserve(edges.size());
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst);
  return builder.Build();
}

}  // namespace

Result<Graph> ReadEdgeListFile(const std::string& path, bool directed,
                               size_t num_vertices) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  return ParseEdgeStream(in, directed, num_vertices);
}

Result<Graph> ParseEdgeList(const std::string& text, bool directed,
                            size_t num_vertices) {
  std::istringstream in(text);
  return ParseEdgeStream(in, directed, num_vertices);
}

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << "# " << graph.name() << " |V|=" << graph.num_vertices()
      << " |E|=" << graph.num_edges()
      << (graph.directed() ? " directed" : " undirected") << "\n";
  for (const Edge& e : graph.edges()) {
    out << e.src << " " << e.dst << "\n";
  }
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::Ok();
}

Status WriteBinaryGraph(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  auto put_u64 = [&](uint64_t x) {
    out.write(reinterpret_cast<const char*>(&x), sizeof(x));
  };
  put_u64(kBinaryMagic);
  put_u64(kBinaryVersion);
  put_u64(graph.num_vertices());
  put_u64(graph.num_edges());
  put_u64(graph.directed() ? 1 : 0);
  uint64_t name_len = graph.name().size();
  put_u64(name_len);
  out.write(graph.name().data(), static_cast<std::streamsize>(name_len));
  for (const Edge& e : graph.edges()) {
    out.write(reinterpret_cast<const char*>(&e.src), sizeof(e.src));
    out.write(reinterpret_cast<const char*>(&e.dst), sizeof(e.dst));
  }
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::Ok();
}

Result<Graph> ReadBinaryGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  auto get_u64 = [&]() -> uint64_t {
    uint64_t x = 0;
    in.read(reinterpret_cast<char*>(&x), sizeof(x));
    return x;
  };
  if (get_u64() != kBinaryMagic) {
    return Status::IoError("'" + path + "' is not a gnnpart binary graph");
  }
  if (get_u64() != kBinaryVersion) {
    return Status::IoError("unsupported binary graph version in '" + path + "'");
  }
  uint64_t num_vertices = get_u64();
  uint64_t num_edges = get_u64();
  bool directed = get_u64() != 0;
  uint64_t name_len = get_u64();
  if (!in) return Status::IoError("truncated header in '" + path + "'");
  // Check the header's sizes against the bytes actually present before
  // allocating anything, so a hostile header cannot request terabytes.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const uint64_t remaining = static_cast<uint64_t>(in.tellg() - header_end);
  in.seekg(header_end);
  auto bad_field = [&](const char* field, uint64_t value,
                       const std::string& why) {
    return Status::IoError("binary graph '" + path + "': header field " +
                           field + "=" + std::to_string(value) + " " + why);
  };
  if (num_vertices >= kInvalidVertex) {
    return bad_field("num_vertices", num_vertices,
                     "exceeds the 32-bit vertex id range");
  }
  if (name_len > remaining) {
    return bad_field("name_len", name_len,
                     "exceeds the " + std::to_string(remaining) +
                         " bytes left in the file");
  }
  constexpr uint64_t kEdgeBytes = 2 * sizeof(VertexId);
  if (num_edges > (remaining - name_len) / kEdgeBytes) {
    return bad_field("num_edges", num_edges,
                     "needs more than the " +
                         std::to_string(remaining - name_len) +
                         " bytes left in the file");
  }
  std::string name(name_len, '\0');
  in.read(name.data(), static_cast<std::streamsize>(name_len));
  GraphBuilder builder(num_vertices, directed);
  builder.Reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    VertexId u = 0, v = 0;
    in.read(reinterpret_cast<char*>(&u), sizeof(u));
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    builder.AddEdge(u, v);
  }
  if (!in) return Status::IoError("truncated binary graph '" + path + "'");
  return builder.Build(std::move(name));
}

}  // namespace gnnpart
