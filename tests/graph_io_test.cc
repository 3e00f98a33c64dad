#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "graph/io.h"

namespace gnnpart {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gnnpart_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, ParseEdgeListBasic) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n2 0\n", false);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST_F(GraphIoTest, ParseSkipsComments) {
  Result<Graph> g = ParseEdgeList("# comment\n% other\n0 1\n\n1 2\n", false);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST_F(GraphIoTest, ParseMalformedLineFails) {
  Result<Graph> g = ParseEdgeList("0 1\nnot an edge\n", false);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

// "-1" extracts into an unsigned id as 2^64 - 1; the error must name the
// sign, not the magnitude.
TEST_F(GraphIoTest, ParseNegativeVertexIdNamesTheFault) {
  for (const char* text : {"0 1\n-1 2\n", "0 1\n2 -3\n"}) {
    Result<Graph> g = ParseEdgeList(text, false);
    ASSERT_FALSE(g.ok()) << text;
    EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(g.status().message().find("negative vertex id at line 2"),
              std::string::npos)
        << g.status();
  }
  Result<Graph> big = ParseEdgeList("0 4294967295\n", false);
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.status().message().find("vertex id too large at line 1"),
            std::string::npos)
      << big.status();
}

TEST_F(GraphIoTest, ParseExplicitVertexCount) {
  Result<Graph> g = ParseEdgeList("0 1\n", false, 10);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 10u);
}

TEST_F(GraphIoTest, ReadMissingFileFails) {
  Result<Graph> g = ReadEdgeListFile(Path("nope.txt"), false);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, ReadDirectoryFailsNamingIt) {
  Result<Graph> g = ReadEdgeListFile(dir_.string(), false);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().message().find(dir_.string()), std::string::npos)
      << g.status();
  Result<Graph> b = ReadBinaryGraph(dir_.string());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, ReadEmptyFileIsEmptyGraph) {
  std::ofstream(Path("empty.txt")).close();
  Result<Graph> g = ReadEdgeListFile(Path("empty.txt"), false);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

// A stdio stream that serves `limit` bytes of "0 1\n" lines and then
// fails, as a disk or network file system can partway through a file.
struct FlakySource {
  size_t served = 0;
  size_t limit = 0;
};

ssize_t FlakyRead(void* cookie, char* buf, size_t size) {
  FlakySource& src = *static_cast<FlakySource*>(cookie);
  if (src.served == src.limit) {
    errno = EIO;
    return -1;
  }
  const size_t n = std::min(size, src.limit - src.served);
  for (size_t i = 0; i < n; ++i) buf[i] = "0 1\n"[(src.served + i) % 4];
  src.served += n;
  return static_cast<ssize_t>(n);
}

TEST_F(GraphIoTest, ReadErrorPartwayFailsNamingTheSource) {
  FlakySource src{0, 3 * kEdgeListChunkBytes / 2};
  std::FILE* in =
      fopencookie(&src, "r", {FlakyRead, nullptr, nullptr, nullptr});
  ASSERT_NE(in, nullptr);
  Result<Graph> g = ReadEdgeList(in, "flaky.txt", false);
  std::fclose(in);
  EXPECT_EQ(src.served, src.limit);  // the error came after a whole chunk
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().message().find("'flaky.txt'"), std::string::npos)
      << g.status();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Both writers' exact output on a small named directed graph.
TEST_F(GraphIoTest, WritersMatchGoldenBytes) {
  GraphBuilder builder(4295, /*directed=*/true);
  builder.AddEdge(10, 0);
  builder.AddEdge(0, 10);
  builder.AddEdge(4294, 7);
  Result<Graph> g = builder.Build("gold");
  ASSERT_TRUE(g.ok()) << g.status();

  ASSERT_TRUE(WriteEdgeListFile(*g, Path("g.txt")).ok());
  EXPECT_EQ(FileBytes(Path("g.txt")),
            "# gold |V|=4295 |E|=3 directed\n0 10\n10 0\n4294 7\n");

  ASSERT_TRUE(WriteBinaryGraph(*g, Path("g.bin")).ok());
  std::string want;
  auto put = [&want](uint64_t x, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) want += static_cast<char>(x >> (8 * i));
  };
  put(0x474e4e5047525048ULL, 8);  // "GNNPGRPH"
  put(1, 8);                      // version
  put(4295, 8);
  put(3, 8);
  put(1, 8);  // directed
  put(4, 8);  // name length
  want += "gold";
  for (uint64_t id : {0, 10, 10, 0, 4294, 7}) put(id, 4);
  EXPECT_EQ(FileBytes(Path("g.bin")), want);
}

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  Result<Graph> g = ParseEdgeList("0 3\n1 2\n3 2\n0 1\n", true, 5);
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_TRUE(WriteEdgeListFile(*g, Path("g.txt")).ok());
  Result<Graph> h = ReadEdgeListFile(Path("g.txt"), true, 5);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(g->edges(), h->edges());
}

TEST_F(GraphIoTest, BinaryRoundTripPreservesEverything) {
  Result<Graph> parsed = ParseEdgeList("0 1\n2 3\n1 3\n4 0\n", true, 6);
  ASSERT_TRUE(parsed.ok());
  // Rebuild with a name.
  GraphBuilder b(6, true);
  for (const Edge& e : parsed->edges()) b.AddEdge(e.src, e.dst);
  Result<Graph> named = b.Build("test-graph");
  ASSERT_TRUE(named.ok());

  ASSERT_TRUE(WriteBinaryGraph(*named, Path("g.bin")).ok());
  Result<Graph> loaded = ReadBinaryGraph(Path("g.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name(), "test-graph");
  EXPECT_EQ(loaded->directed(), true);
  EXPECT_EQ(loaded->num_vertices(), 6u);
  EXPECT_EQ(loaded->edges(), named->edges());
}

TEST_F(GraphIoTest, BinaryRejectsGarbage) {
  std::ofstream out(Path("junk.bin"), std::ios::binary);
  out << "this is not a graph file at all, definitely too short";
  out.close();
  Result<Graph> g = ReadBinaryGraph(Path("junk.bin"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, BinaryRejectsTruncation) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n2 3\n", false, 4);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryGraph(*g, Path("full.bin")).ok());
  // Truncate the file.
  auto size = std::filesystem::file_size(Path("full.bin"));
  std::filesystem::resize_file(Path("full.bin"), size - 6);
  Result<Graph> h = ReadBinaryGraph(Path("full.bin"));
  ASSERT_FALSE(h.ok());
}

// Overwrites the u64 header field at `offset` of a valid binary graph:
// 16 = |V|, 24 = |E|, 40 = name length.
void PatchHeader(const std::string& path, std::streamoff offset,
                 uint64_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Hostile headers must come back as a Status naming the field, never as an
// allocation abort (length_error / bad_alloc).
TEST_F(GraphIoTest, BinaryRejectsHostileHeaderSizes) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n2 3\n", false, 4);
  ASSERT_TRUE(g.ok());
  const struct {
    std::streamoff offset;
    uint64_t value;
    const char* field;
  } cases[] = {{24, uint64_t{1} << 60, "num_edges"},
               {40, uint64_t{1} << 62, "name_len"},
               {16, uint64_t{1} << 40, "num_vertices"}};
  for (const auto& c : cases) {
    ASSERT_TRUE(WriteBinaryGraph(*g, Path("hostile.bin")).ok());
    PatchHeader(Path("hostile.bin"), c.offset, c.value);
    Result<Graph> h = ReadBinaryGraph(Path("hostile.bin"));
    ASSERT_FALSE(h.ok()) << c.field;
    EXPECT_EQ(h.status().code(), StatusCode::kIoError) << c.field;
    EXPECT_NE(h.status().message().find(c.field), std::string::npos)
        << h.status().message();
  }
}

TEST_F(GraphIoTest, WriteToUnwritablePathFails) {
  Result<Graph> g = ParseEdgeList("0 1\n", false);
  ASSERT_TRUE(g.ok());
  Status s = WriteEdgeListFile(*g, "/nonexistent-dir/x/y.txt");
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace gnnpart
