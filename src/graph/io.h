#ifndef GNNPART_GRAPH_IO_H_
#define GNNPART_GRAPH_IO_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/graph.h"

namespace gnnpart {

/// The text readers hold one buffer of this many bytes (more only while a
/// single line is longer), however large the file.
inline constexpr size_t kEdgeListChunkBytes = size_t{4} << 20;

/// Reads a whitespace-separated edge-list file ("u v" per line, '#' or '%'
/// comment lines, the common SNAP/KONECT format). Vertex ids must be in
/// [0, num_vertices); pass num_vertices = 0 to infer it as max id + 1.
/// A path that cannot be read (a directory, say) is an IoError naming it.
Result<Graph> ReadEdgeListFile(const std::string& path, bool directed,
                               size_t num_vertices = 0);

/// Same, from an open stdio stream read to its end; `source` names the
/// stream in I/O error messages.
Result<Graph> ReadEdgeList(std::FILE* in, const std::string& source,
                           bool directed, size_t num_vertices = 0);

/// Parses an edge list from an in-memory string (same format). Useful for
/// tests and small fixtures.
Result<Graph> ParseEdgeList(std::string_view text, bool directed,
                            size_t num_vertices = 0);

/// Writes the canonical edge list as "u v" lines.
Status WriteEdgeListFile(const Graph& graph, const std::string& path);

/// Binary snapshot (magic + header + edge array, little-endian). Round-trips
/// exactly through ReadBinaryGraph.
Status WriteBinaryGraph(const Graph& graph, const std::string& path);
Result<Graph> ReadBinaryGraph(const std::string& path);

}  // namespace gnnpart

#endif  // GNNPART_GRAPH_IO_H_
