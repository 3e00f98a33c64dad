// Seeded mutation fuzzer for the graph readers (ctest label `fuzz`). It
// mutates the seed corpus in tests/fuzz_corpus with the common/rng text
// mutator of tests/fuzz_mutator.h (plus binary header patches here), for a
// fixed number of iterations, and requires:
//   * edge lists: ParseEdgeList gives the same ok-ness, StatusCode and
//     message as the reference reader (tests/ingest_oracle.*), and an equal
//     graph when both succeed;
//   * binary graphs: ReadBinaryGraph returns a Status, never aborts, and
//     when it succeeds its graph is the reference builder's on the header
//     and edge array in the file.
// The text cases pass an explicit |V|, so a mutated id cannot size a huge
// graph; inputs that parse with it are parsed again with |V| inferred.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_mutator.h"
#include "graph/io.h"
#include "ingest_oracle.h"

namespace gnnpart {
namespace {

constexpr uint64_t kSeed = 0x6e6e7066757a7aULL;
constexpr int kTextIterations = 20000;
constexpr int kBinaryIterations = 3000;
constexpr size_t kFuzzVertices = 64;
constexpr size_t kHeaderBytes = 48;

std::vector<std::string> Corpus() {
  return fuzz::ReadCorpus(GNNPART_FUZZ_CORPUS);
}

TEST(IngestFuzzTest, EdgeListsMatchTheReferenceReader) {
  const std::vector<std::string> corpus = Corpus();
  ASSERT_FALSE(corpus.empty());
  Rng rng(kSeed);
  int parsed = 0;
  for (int i = 0; i < kTextIterations; ++i) {
    std::string text = corpus[rng.NextBounded(corpus.size())];
    for (uint64_t m = 1 + rng.NextBounded(4); m > 0; --m) {
      fuzz::MutateTextOnce(text, rng);
    }
    const bool directed = rng.NextBounded(2) == 0;
    const Result<Graph> want =
        oracle::ParseEdgeList(text, directed, kFuzzVertices);
    ASSERT_EQ(oracle::ResultDiff(ParseEdgeList(text, directed, kFuzzVertices),
                                 want),
              "")
        << "iteration " << i << " input '" << text << "'";
    if (!want.ok()) continue;
    ++parsed;
    ASSERT_EQ(oracle::ResultDiff(ParseEdgeList(text, directed),
                                 oracle::ParseEdgeList(text, directed)),
              "")
        << "iteration " << i << " input '" << text << "'";
  }
  // The mutations must leave a fair share of inputs valid, or the fuzzer
  // would only ever exercise the error paths.
  EXPECT_GT(parsed, kTextIterations / 10);
  EXPECT_LT(parsed, kTextIterations * 9 / 10);
}

class BinaryFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("gnnpart_fuzz_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string ReadBytes() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void WriteBytes(const std::string& bytes) {
    std::ofstream(path_, std::ios::binary) << bytes;
  }

  std::string path_;
};

uint64_t Field(const std::string& bytes, size_t index) {
  uint64_t x = 0;
  std::memcpy(&x, bytes.data() + 8 * index, sizeof(x));
  return x;
}

/// Replaces one header field with a hostile value. An accepted |V| stays
/// below kFuzzVertices: the builder allocates per-vertex arrays for any
/// valid header, however few edges follow.
void PatchHeader(std::string& b, Rng& rng) {
  const size_t field = rng.NextBounded(6);
  const uint64_t old = Field(b, field);
  const uint64_t pick = rng.NextBounded(4);
  uint64_t value = 0;
  switch (field) {
    case 0:
      value = old ^ (uint64_t{1} << rng.NextBounded(64));
      break;
    case 1:
      value = pick == 0 ? 0 : pick == 1 ? 2 : ~uint64_t{0};
      break;
    case 2: {
      const uint64_t big[] = {uint64_t{1} << 32, (uint64_t{1} << 32) - 1,
                              uint64_t{1} << 63, ~uint64_t{0}};
      value = rng.NextBounded(2) ? rng.NextBounded(kFuzzVertices)
                                 : big[pick];
      break;
    }
    case 3: {
      const uint64_t choices[] = {old + 1, old == 0 ? 0 : old - 1,
                                  rng.NextBounded(2 * old + 2),
                                  uint64_t{1} << 60};
      value = choices[pick];
      break;
    }
    case 4:
      value = pick == 0 ? 0 : pick == 1 ? 1 : pick == 2 ? 2 : ~uint64_t{0};
      break;
    default: {
      const uint64_t choices[] = {0, old + 1 + rng.NextBounded(64),
                                  old == 0 ? 0 : old - 1, uint64_t{1} << 62};
      value = choices[pick];
      break;
    }
  }
  std::memcpy(b.data() + 8 * field, &value, sizeof(value));
}

void MutateBinaryOnce(std::string& b, Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:  // bit flips in the name and edge array
      if (b.size() > kHeaderBytes) {
        b[kHeaderBytes + rng.NextBounded(b.size() - kHeaderBytes)] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    case 1:
      PatchHeader(b, rng);
      break;
    case 2:  // truncation
      b.resize(rng.NextBounded(b.size() + 1));
      break;
    default:  // trailing garbage
      b.append(rng.NextBounded(24), static_cast<char>(rng.Next()));
      break;
  }
}

TEST_F(BinaryFuzzTest, BinaryGraphsReturnAStatus) {
  std::vector<std::string> images;
  for (const std::string& text : Corpus()) {
    for (bool directed : {false, true}) {
      Result<Graph> g = ParseEdgeList(text, directed);
      ASSERT_TRUE(g.ok()) << g.status();
      ASSERT_TRUE(WriteBinaryGraph(*g, path_).ok());
      images.push_back(ReadBytes());
    }
  }
  Rng rng(kSeed);
  int loaded = 0;
  for (int i = 0; i < kBinaryIterations; ++i) {
    std::string bytes = images[rng.NextBounded(images.size())];
    for (uint64_t m = 1 + rng.NextBounded(3); m > 0; --m) {
      if (bytes.size() < kHeaderBytes) break;
      MutateBinaryOnce(bytes, rng);
    }
    WriteBytes(bytes);
    const Result<Graph> got = ReadBinaryGraph(path_);
    if (!got.ok()) {
      EXPECT_TRUE(got.status().code() == StatusCode::kIoError ||
                  got.status().code() == StatusCode::kInvalidArgument)
          << got.status();
      continue;
    }
    // Accepted: the header was whole and its sizes fit the file.
    ++loaded;
    const size_t name_len = Field(bytes, 5);
    std::vector<Edge> edges(Field(bytes, 3));
    if (!edges.empty()) {
      std::memcpy(edges.data(), bytes.data() + kHeaderBytes + name_len,
                  edges.size() * sizeof(Edge));
    }
    ASSERT_EQ(oracle::ResultDiff(
                  got, oracle::BuildGraph(
                           Field(bytes, 2), Field(bytes, 4) != 0,
                           std::move(edges),
                           bytes.substr(kHeaderBytes, name_len))),
              "")
        << "iteration " << i;
  }
  EXPECT_GT(loaded, kBinaryIterations / 20);
}

}  // namespace
}  // namespace gnnpart
