#ifndef GNNPART_TESTS_INGEST_ORACLE_H_
#define GNNPART_TESTS_INGEST_ORACLE_H_

#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace gnnpart {
namespace oracle {

/// Reference GraphBuilder::Build: copies the raw edges into a canonical
/// vector, sorts it with std::sort, fills the adjacency and sorts and
/// dedups every neighbourhood. Slow, simple, and the bit-exact definition
/// the counting-sort builder must reproduce (same Status on bad input).
Result<Graph> BuildGraph(size_t num_vertices, bool directed,
                         std::vector<Edge> raw_edges, std::string name = "");

/// Reference edge-list reader: one std::getline plus one std::istringstream
/// per line, then BuildGraph. Defines the accepted input language — every
/// Status code and message, istream quirks included — that the chunked
/// from_chars scanner of graph/io.cc must reproduce.
Result<Graph> ParseEdgeStream(std::istream& in, bool directed,
                              size_t num_vertices);

/// ParseEdgeStream over an in-memory string.
Result<Graph> ParseEdgeList(const std::string& text, bool directed,
                            size_t num_vertices = 0);

/// "" if `got` and `want` are the same graph: equal num_vertices(), name(),
/// directed(), edges() and every Neighbors(v). Otherwise the first
/// difference, in words.
std::string GraphDiff(const Graph& got, const Graph& want);

/// "" if both results are equal graphs, or both failed with the same
/// StatusCode and message. Otherwise the first difference, in words.
std::string ResultDiff(const Result<Graph>& got, const Result<Graph>& want);

}  // namespace oracle
}  // namespace gnnpart

#endif  // GNNPART_TESTS_INGEST_ORACLE_H_
