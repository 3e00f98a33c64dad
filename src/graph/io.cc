#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <memory>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace gnnpart {
namespace {

constexpr uint64_t kBinaryMagic = 0x474e4e5047525048ULL;  // "GNNPGRPH"
constexpr uint32_t kBinaryVersion = 1;
static_assert(sizeof(Edge) == 2 * sizeof(VertexId),
              "the binary edge array is read and written as Edge structs");

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Publishes the det `io/edges_parsed` count of raw edges a reader parsed.
void CountParsed(size_t edges) {
  static const obs::Counter parsed =
      obs::GetCounter("io/edges_parsed", "edges");
  parsed.Add(edges);
}

/// The "C" locale's isspace: what istream extraction skips.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Extracts one id the way `std::istream >> uint64_t` does: skip whitespace,
/// take an optional '+' or '-' and then decimal digits. '-' negates modulo
/// 2^64 ("-1" is 2^64 - 1); no digits, or a value past 2^64 - 1, fails.
bool ExtractId(const char*& p, const char* end, uint64_t* value) {
  while (p != end && IsSpace(*p)) ++p;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  uint64_t x = 0;
  const std::from_chars_result r = std::from_chars(p, end, x);
  if (r.ec != std::errc()) return false;
  p = r.ptr;
  *value = negative ? uint64_t{0} - x : x;
  return true;
}

/// True if the first or second whitespace-separated token of `line` starts
/// with '-': an id that wrapped negative, not one that is merely too large.
bool NegativeToken(std::string_view line) {
  size_t i = 0;
  for (int token = 0; token < 2; ++token) {
    while (i < line.size() && IsSpace(line[i])) ++i;
    if (i < line.size() && line[i] == '-') return true;
    while (i < line.size() && !IsSpace(line[i])) ++i;
  }
  return false;
}

/// Parses edge-list lines, in order, straight into the builder's edge vector.
class EdgeListScanner {
 public:
  /// Parses every line of `text`, which ends at a line end or at the end of
  /// the input. Stops at the first bad line.
  Status Scan(std::string_view text) {
    while (!text.empty()) {
      const size_t nl = text.find('\n');
      const std::string_view line = text.substr(0, nl);
      text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
      ++line_no_;
      if (line.empty() || line[0] == '#' || line[0] == '%') continue;
      const char* p = line.data();
      const char* end = p + line.size();
      uint64_t u = 0, v = 0;
      if (!ExtractId(p, end, &u) || !ExtractId(p, end, &v)) {
        return Status::IoError("malformed edge at line " +
                               std::to_string(line_no_) + ": '" +
                               std::string(line) + "'");
      }
      if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
        return Status::OutOfRange(
            std::string(NegativeToken(line) ? "negative vertex id"
                                            : "vertex id too large") +
            " at line " + std::to_string(line_no_));
      }
      edges_.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
      max_id_ = std::max({max_id_, edges_.back().src, edges_.back().dst});
    }
    return Status::Ok();
  }

  Result<Graph> Finish(bool directed, size_t num_vertices) {
    CountParsed(edges_.size());
    size_t n = num_vertices;
    if (n == 0) n = edges_.empty() ? 0 : static_cast<size_t>(max_id_) + 1;
    return GraphBuilder(n, directed, std::move(edges_)).Build();
  }

 private:
  std::vector<Edge> edges_;
  VertexId max_id_ = 0;
  size_t line_no_ = 0;
};

}  // namespace

Result<Graph> ReadEdgeList(std::FILE* in, const std::string& source,
                           bool directed, size_t num_vertices) {
  EdgeListScanner scanner;
  std::vector<char> buf(kEdgeListChunkBytes);
  size_t held = 0;  // bytes of an unfinished line, kept at the front
  for (;;) {
    if (held == buf.size()) buf.resize(2 * buf.size());  // one long line
    const size_t got = std::fread(buf.data() + held, 1, buf.size() - held, in);
    if (std::ferror(in)) {
      return Status::IoError("read error in '" + source + "'");
    }
    if (got == 0) break;
    held += got;
    const std::string_view data(buf.data(), held);
    const size_t last_nl = data.rfind('\n');
    if (last_nl == std::string_view::npos) continue;
    if (Status st = scanner.Scan(data.substr(0, last_nl + 1)); !st.ok()) {
      return st;
    }
    held -= last_nl + 1;
    std::memmove(buf.data(), buf.data() + last_nl + 1, held);
  }
  if (Status st = scanner.Scan({buf.data(), held}); !st.ok()) return st;
  return scanner.Finish(directed, num_vertices);
}

Result<Graph> ReadEdgeListFile(const std::string& path, bool directed,
                               size_t num_vertices) {
  File in(std::fopen(path.c_str(), "rb"));
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  return ReadEdgeList(in.get(), path, directed, num_vertices);
}

Result<Graph> ParseEdgeList(std::string_view text, bool directed,
                            size_t num_vertices) {
  EdgeListScanner scanner;
  if (Status st = scanner.Scan(text); !st.ok()) return st;
  return scanner.Finish(directed, num_vertices);
}

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  File out(std::fopen(path.c_str(), "wb"));
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  const std::string head =
      "# " + graph.name() + " |V|=" + std::to_string(graph.num_vertices()) +
      " |E|=" + std::to_string(graph.num_edges()) +
      (graph.directed() ? " directed" : " undirected") + "\n";
  bool ok = std::fwrite(head.data(), 1, head.size(), out.get()) == head.size();
  // "u v\n" lines formatted into a bounded buffer; one line is at most
  // 2 * 10 digits + 2 bytes.
  std::vector<char> buf(size_t{1} << 16);
  char* const end = buf.data() + buf.size();
  char* p = buf.data();
  auto flush = [&] {
    const size_t used = static_cast<size_t>(p - buf.data());
    ok = ok && std::fwrite(buf.data(), 1, used, out.get()) == used;
    p = buf.data();
  };
  for (const Edge& e : graph.edges()) {
    if (end - p < 32) flush();
    p = std::to_chars(p, end, e.src).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, e.dst).ptr;
    *p++ = '\n';
  }
  flush();
  ok = std::fclose(out.release()) == 0 && ok;
  if (!ok) return Status::IoError("write failed for '" + path + "'");
  return Status::Ok();
}

Status WriteBinaryGraph(const Graph& graph, const std::string& path) {
  File out(std::fopen(path.c_str(), "wb"));
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  const std::string& name = graph.name();
  const uint64_t header[6] = {kBinaryMagic,       kBinaryVersion,
                              graph.num_vertices(), graph.num_edges(),
                              graph.directed() ? 1u : 0u, name.size()};
  const std::vector<Edge>& edges = graph.edges();
  bool ok = std::fwrite(header, sizeof(header), 1, out.get()) == 1 &&
            std::fwrite(name.data(), 1, name.size(), out.get()) ==
                name.size() &&
            std::fwrite(edges.data(), sizeof(Edge), edges.size(),
                        out.get()) == edges.size();
  ok = std::fclose(out.release()) == 0 && ok;
  if (!ok) return Status::IoError("write failed for '" + path + "'");
  return Status::Ok();
}

Result<Graph> ReadBinaryGraph(const std::string& path) {
  File in(std::fopen(path.c_str(), "rb"));
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  // magic, version, |V|, |E|, directed, name length. A short file leaves the
  // missing bytes zero, exactly as field-by-field reads would.
  uint64_t header[6] = {};
  const size_t got = std::fread(header, 1, sizeof(header), in.get());
  if (std::ferror(in.get())) {
    return Status::IoError("read error in '" + path + "'");
  }
  if (header[0] != kBinaryMagic) {
    return Status::IoError("'" + path + "' is not a gnnpart binary graph");
  }
  if (header[1] != kBinaryVersion) {
    return Status::IoError("unsupported binary graph version in '" + path + "'");
  }
  const uint64_t num_vertices = header[2];
  const uint64_t num_edges = header[3];
  const bool directed = header[4] != 0;
  const uint64_t name_len = header[5];
  if (got < sizeof(header)) {
    return Status::IoError("truncated header in '" + path + "'");
  }
  // Check the header's sizes against the bytes actually present before
  // allocating anything, so a hostile header cannot request terabytes.
  if (std::fseek(in.get(), 0, SEEK_END) != 0) {
    return Status::IoError("read error in '" + path + "'");
  }
  const long file_end = std::ftell(in.get());
  if (file_end < static_cast<long>(sizeof(header)) ||
      std::fseek(in.get(), sizeof(header), SEEK_SET) != 0) {
    return Status::IoError("read error in '" + path + "'");
  }
  const uint64_t remaining = static_cast<uint64_t>(file_end) - sizeof(header);
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
  if (num_edges > (remaining - name_len) / sizeof(Edge)) {
    return bad_field("num_edges", num_edges,
                     "needs more than the " +
                         std::to_string(remaining - name_len) +
                         " bytes left in the file");
  }
  std::string name(name_len, '\0');
  std::vector<Edge> edges(num_edges);
  if (std::fread(name.data(), 1, name_len, in.get()) != name_len ||
      std::fread(edges.data(), sizeof(Edge), num_edges, in.get()) !=
          num_edges) {
    return Status::IoError("truncated binary graph '" + path + "'");
  }
  CountParsed(edges.size());
  return GraphBuilder(num_vertices, directed, std::move(edges))
      .Build(std::move(name));
}

}  // namespace gnnpart
