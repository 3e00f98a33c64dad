#include <gtest/gtest.h>

#include "graph/degree_stats.h"
#include "graph/graph.h"
#include "graph/split.h"

namespace gnnpart {
namespace {

Graph MustBuild(GraphBuilder* builder, const std::string& name = "") {
  Result<Graph> g = builder->Build(name);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(0, false);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, SimpleTriangle) {
  GraphBuilder b(3, false);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = MustBuild(&b, "triangle");
  EXPECT_EQ(g.name(), "triangle");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2u);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(GraphBuilderTest, RemovesSelfLoops) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, DeduplicatesUndirectedEdges) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edges()[0].src, 0u);
  EXPECT_EQ(g.edges()[0].dst, 1u);
}

TEST(GraphBuilderTest, DirectedKeepsReciprocalArcs) {
  GraphBuilder b(2, true);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_edges(), 2u);
  // Symmetrized adjacency still lists each neighbour once.
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 5);
  Result<Graph> g = b.Build();
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, NeighborsAreSortedUnique) {
  GraphBuilder b(5, false);
  b.AddEdge(2, 4);
  b.AddEdge(2, 1);
  b.AddEdge(2, 3);
  b.AddEdge(3, 2);  // duplicate in reverse
  Graph g = MustBuild(&b);
  auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 3u);
  EXPECT_EQ(nbrs[2], 4u);
}

// The last vertex's neighbourhood ends one past the adjacency array; the
// span must be formed without indexing that position.
TEST(GraphBuilderTest, LastVertexAndEdgelessGraphNeighbors) {
  GraphBuilder b(3, false);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Graph g = MustBuild(&b);
  auto last = g.Neighbors(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0], 0u);
  EXPECT_EQ(last[1], 1u);

  GraphBuilder empty(3, false);
  Graph none = MustBuild(&empty);
  for (VertexId v = 0; v < 3; ++v) EXPECT_TRUE(none.Neighbors(v).empty());
}

TEST(GraphBuilderTest, IsolatedVerticesHaveZeroDegree) {
  GraphBuilder b(4, false);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(GraphTest, MeanAndMaxDegree) {
  GraphBuilder b(4, false);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.MaxDegree(), 3u);
  EXPECT_DOUBLE_EQ(g.MeanDegree(), 6.0 / 4.0);
}

TEST(GraphTest, HasEdgeOutOfRangeIsFalse) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_FALSE(g.HasEdge(0, 7));
  EXPECT_FALSE(g.HasEdge(9, 1));
}

TEST(GraphTest, MemoryBytesIsPositive) {
  GraphBuilder b(3, false);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

// ------------------------------------------------------------ DegreeStats

TEST(DegreeStatsTest, StarGraphIsSkewed) {
  GraphBuilder b(101, false);
  for (VertexId v = 1; v <= 100; ++v) b.AddEdge(0, v);
  Graph g = MustBuild(&b);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.max_degree, 100u);
  EXPECT_GT(s.skew, 3.0);
  EXPECT_GT(s.top1pct_degree_share, 0.4);
}

TEST(DegreeStatsTest, RingGraphIsRegular) {
  const size_t n = 100;
  GraphBuilder b(n, false);
  for (VertexId v = 0; v < n; ++v) b.AddEdge(v, (v + 1) % n);
  Graph g = MustBuild(&b);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_DOUBLE_EQ(s.mean_degree, 2.0);
  EXPECT_NEAR(s.skew, 0.0, 1e-12);
}

TEST(DegreeStatsTest, LogHistogramBuckets) {
  GraphBuilder b(10, false);
  // vertex 0 has degree 5 -> bucket 2 ([4,8)).
  for (VertexId v = 1; v <= 5; ++v) b.AddEdge(0, v);
  Graph g = MustBuild(&b);
  auto hist = LogDegreeHistogram(g);
  ASSERT_GE(hist.size(), 3u);
  EXPECT_EQ(hist[2], 1u);  // the hub
  EXPECT_EQ(hist[0], 9u);  // degree-1 leaves + isolated... leaves only
}

TEST(DegreeStatsTest, EmptyGraph) {
  GraphBuilder b(0, false);
  Graph g = MustBuild(&b);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.mean_degree, 0.0);
}

// ------------------------------------------------------------ VertexSplit

TEST(VertexSplitTest, FractionsRoughlyRespected) {
  VertexSplit split = VertexSplit::MakeRandom(10000, 0.1, 0.1, 42);
  EXPECT_NEAR(split.train_vertices().size(), 1000, 120);
  EXPECT_NEAR(split.validation_vertices().size(), 1000, 120);
  EXPECT_NEAR(split.test_vertices().size(), 8000, 250);
  EXPECT_EQ(split.train_vertices().size() + split.validation_vertices().size() +
                split.test_vertices().size(),
            10000u);
}

TEST(VertexSplitTest, DeterministicInSeed) {
  VertexSplit a = VertexSplit::MakeRandom(1000, 0.1, 0.1, 7);
  VertexSplit b = VertexSplit::MakeRandom(1000, 0.1, 0.1, 7);
  EXPECT_EQ(a.train_vertices(), b.train_vertices());
  VertexSplit c = VertexSplit::MakeRandom(1000, 0.1, 0.1, 8);
  EXPECT_NE(a.train_vertices(), c.train_vertices());
}

TEST(VertexSplitTest, RolesConsistentWithLists) {
  VertexSplit split = VertexSplit::MakeRandom(500, 0.2, 0.3, 3);
  for (VertexId v : split.train_vertices()) {
    EXPECT_TRUE(split.IsTrain(v));
    EXPECT_EQ(split.RoleOf(v), VertexRole::kTrain);
  }
  for (VertexId v : split.validation_vertices()) {
    EXPECT_EQ(split.RoleOf(v), VertexRole::kValidation);
  }
  for (VertexId v : split.test_vertices()) {
    EXPECT_EQ(split.RoleOf(v), VertexRole::kTest);
  }
}

}  // namespace
}  // namespace gnnpart
