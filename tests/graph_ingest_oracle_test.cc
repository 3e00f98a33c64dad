// Differential test of the chunked from_chars edge-list reader, the bulk
// binary reader and the counting-sort GraphBuilder::Build against the
// getline/istringstream reader and std::sort builder they replaced
// (tests/ingest_oracle.*): every input must give an equal graph (edges(),
// every Neighbors(v), num_vertices(), name(), directed()) or the same
// Status code and message.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/datasets.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "ingest_oracle.h"

namespace gnnpart {
namespace {

class IngestOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gnnpart_ingest_oracle_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string WriteText(const std::string& name, const std::string& text) {
    std::ofstream(Path(name), std::ios::binary) << text;
    return Path(name);
  }

  /// The reference reader over the same file.
  static Result<Graph> OracleRead(const std::string& path, bool directed,
                                  size_t num_vertices) {
    std::ifstream in(path);
    return oracle::ParseEdgeStream(in, directed, num_vertices);
  }

  /// ReadEdgeListFile and ParseEdgeList against the reference reader.
  void ExpectSameText(const std::string& text, bool directed,
                      size_t num_vertices) {
    const std::string path = WriteText("case.txt", text);
    const Result<Graph> want = OracleRead(path, directed, num_vertices);
    EXPECT_EQ(oracle::ResultDiff(ReadEdgeListFile(path, directed, num_vertices),
                                 want),
              "");
    EXPECT_EQ(oracle::ResultDiff(ParseEdgeList(text, directed, num_vertices),
                                 want),
              "");
  }

  std::filesystem::path dir_;
};

/// The canonical edges of `g` as a builder would see them from a messy
/// source: shuffled, undirected endpoints flipped at random, some edges
/// repeated (reversed, for directed graphs: reciprocal arcs) and some
/// self-loops added.
std::vector<Edge> Scramble(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> raw;
  for (const Edge& e : g.edges()) {
    const bool flip = rng.NextBounded(2) == 0;
    raw.push_back(flip && !g.directed() ? Edge{e.dst, e.src} : e);
    if (rng.NextBounded(8) == 0) raw.push_back({e.dst, e.src});
    if (rng.NextBounded(16) == 0) raw.push_back({e.src, e.src});
  }
  rng.Shuffle(&raw);
  return raw;
}

TEST_F(IngestOracleTest, DatasetsBuildAndRoundTripIdentically) {
  for (DatasetId id : AllDatasets()) {
    SCOPED_TRACE(DatasetCode(id));
    Result<Graph> g = MakeDataset(id, 0.02, 3);
    ASSERT_TRUE(g.ok()) << g.status();
    const bool directed = g->directed();
    EXPECT_EQ(directed, DatasetDirected(id));
    const size_t n = g->num_vertices();

    // The builder on unsorted input (the counting-sort path) and on the
    // canonical list itself (the already-ascending path).
    for (std::vector<Edge> raw : {Scramble(*g, 1), g->edges()}) {
      const Result<Graph> want = oracle::BuildGraph(n, directed, raw, "x");
      EXPECT_EQ(oracle::ResultDiff(
                    GraphBuilder(n, directed, std::move(raw)).Build("x"), want),
                "");
    }

    // Text round trip, with the vertex count inferred and explicit.
    ASSERT_TRUE(WriteEdgeListFile(*g, Path("g.txt")).ok());
    for (size_t num_vertices : {size_t{0}, n, n + 5}) {
      const Result<Graph> want = OracleRead(Path("g.txt"), directed,
                                            num_vertices);
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(oracle::ResultDiff(
                    ReadEdgeListFile(Path("g.txt"), directed, num_vertices),
                    want),
                "");
    }

    // Binary round trip: the reader's graph is the reference builder's on
    // the stored edge array, and equals the graph that was written.
    ASSERT_TRUE(WriteBinaryGraph(*g, Path("g.bin")).ok());
    const Result<Graph> loaded = ReadBinaryGraph(Path("g.bin"));
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const Result<Graph> want =
        oracle::BuildGraph(n, directed, g->edges(), g->name());
    EXPECT_EQ(oracle::ResultDiff(loaded, want), "");
    EXPECT_EQ(oracle::GraphDiff(*loaded, *g), "");
  }
}

TEST_F(IngestOracleTest, BuilderEdgeCases) {
  const std::vector<std::pair<size_t, std::vector<Edge>>> cases = {
      {0, {}},
      {5, {}},
      {3, {{1, 1}, {2, 2}}},
      {4, {{3, 0}, {0, 3}, {3, 0}, {1, 2}, {2, 1}, {2, 1}}},
      {6, {{5, 4}, {4, 5}, {0, 5}, {5, 0}, {1, 5}, {5, 1}, {5, 2}}},
      {4, {{0, 1}, {4, 2}}},  // out of range
      {3, {{0, 1}, {1, 2}, {0, 3}, {7, 1}}},
  };
  for (bool directed : {false, true}) {
    for (const auto& [n, raw] : cases) {
      EXPECT_EQ(oracle::ResultDiff(GraphBuilder(n, directed, raw).Build("b"),
                                   oracle::BuildGraph(n, directed, raw, "b")),
                "")
          << "directed=" << directed << " n=" << n;
    }
  }
}

TEST_F(IngestOracleTest, LineEndsWhitespaceAndTrailingColumns) {
  const char* texts[] = {
      "0 1\r\n1 2\r\n2 0\r\n",
      "0 1\r\n\r\n1 2\n",  // a bare "\r" line is malformed
      "0\t1\n1 \t 2\t\n\v2\f3\n",
      "0 1 0.5 extra\n1 2 7\n2 3abc\n3 4-5\n",
      "0 1\n1 2\n2 3",  // no final newline
      "0 1\n1 2\n\n\n",
      "# header\n% konect\n0 1\n #not a comment\n",
      "+5 -0\n+0 3\n007 0008\n",
      "-18446744073709551615 2\n",  // wraps to 1
      "18446744073709551616 2\n",   // overflows: malformed
      "0 -1\n",
      "4294967295 1\n",
      "5-1 3\n",
      "1 2-3\n",
      "-5 4294967296\n",
      "0x1 2\n",
      "1.5 2\n",
      "- 1\n",
      "--1 2\n",
      "+-1 2\n",
      "1\n",
      "   \n",
      "",
      "\n",
  };
  for (const char* text : texts) {
    for (bool directed : {false, true}) {
      for (size_t n : {size_t{0}, size_t{9}}) {
        SCOPED_TRACE(testing::Message() << "'" << text << "' directed="
                                        << directed << " n=" << n);
        ExpectSameText(text, directed, n);
      }
    }
  }
  // An embedded NUL byte is an ordinary non-digit character.
  ExpectSameText(std::string("0 1\n2\0 3\n", 9), false, 0);
}

// A line longer than the read buffer: a comment, a valid edge with a long
// trailing column, and a malformed line whose whole text is in the message.
TEST_F(IngestOracleTest, LineLongerThanTheReadBuffer) {
  const std::string pad(kEdgeListChunkBytes + 1000, 'x');
  for (const std::string& text :
       {"0 1\n#" + pad + "\n1 2\n", "0 1\n1 2 " + pad + "\n2 3\n",
        "0 1\n" + pad + "\n", "0 1\n3 " + pad}) {
    ExpectSameText(text, false, 0);
  }
}

// Lines split across two chunks at every offset near the boundary, with
// the newline itself landing on either side.
TEST_F(IngestOracleTest, LineSplitAcrossChunks) {
  for (size_t tail = 1; tail <= 12; ++tail) {
    // A comment line that ends `tail` bytes before the chunk boundary.
    std::string text = "0 1\n#";
    text.append(kEdgeListChunkBytes - tail - text.size() - 1, 'c');
    text += '\n';
    text += "123 4567\n89 1011 x\n5 -6\n";
    SCOPED_TRACE(tail);
    ExpectSameText(text, false, 0);
    text.resize(text.size() - 5);  // drop the bad last line
    ExpectSameText(text, true, 0);
  }
}

}  // namespace
}  // namespace gnnpart
