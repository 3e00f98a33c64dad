#include <cmath>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "graph/degree_stats.h"

namespace gnnpart {
namespace {

TEST(DatasetsTest, AllFiveDatasetsExist) {
  auto all = AllDatasets();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(DatasetCode(all[0]), "HW");
  EXPECT_EQ(DatasetCode(all[1]), "DI");
  EXPECT_EQ(DatasetCode(all[2]), "EN");
  EXPECT_EQ(DatasetCode(all[3]), "EU");
  EXPECT_EQ(DatasetCode(all[4]), "OR");
}

TEST(DatasetsTest, DirectednessMatchesPaperTable1) {
  EXPECT_FALSE(DatasetDirected(DatasetId::kHollywood));
  EXPECT_TRUE(DatasetDirected(DatasetId::kDimacsUsa));
  EXPECT_TRUE(DatasetDirected(DatasetId::kEnwiki));
  EXPECT_TRUE(DatasetDirected(DatasetId::kEu));
  EXPECT_FALSE(DatasetDirected(DatasetId::kOrkut));
}

TEST(DatasetsTest, ParseCodeRoundTrip) {
  for (DatasetId id : AllDatasets()) {
    Result<DatasetId> parsed = ParseDatasetCode(DatasetCode(id));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_TRUE(ParseDatasetCode("or").ok());  // case-insensitive
  EXPECT_FALSE(ParseDatasetCode("XX").ok());
}

TEST(DatasetsTest, GeneratedGraphCarriesName) {
  Result<Graph> g = MakeDataset(DatasetId::kOrkut, 0.05, 42);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->name(), "OR");
}

TEST(DatasetsTest, ScaleControlsSize) {
  Result<Graph> small = MakeDataset(DatasetId::kEnwiki, 0.02, 42);
  Result<Graph> large = MakeDataset(DatasetId::kEnwiki, 0.08, 42);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->num_edges(), 2 * small->num_edges());
  EXPECT_GT(large->num_vertices(), 2 * small->num_vertices());
}

TEST(DatasetsTest, RejectsNonPositiveScale) {
  EXPECT_FALSE(MakeDataset(DatasetId::kOrkut, 0.0, 1).ok());
  EXPECT_FALSE(MakeDataset(DatasetId::kOrkut, -1.0, 1).ok());
}

// Non-finite and absurd scales fail with a status instead of aborting in
// an allocation (std::length_error / std::bad_alloc).
TEST(DatasetsTest, RejectsNonFiniteScale) {
  for (double scale : {std::nan(""), HUGE_VAL}) {
    Result<Graph> g = MakeDataset(DatasetId::kOrkut, scale, 1);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DatasetsTest, RejectsScaleBeyondVertexIdSpace) {
  for (DatasetId id : AllDatasets()) {
    Result<Graph> g = MakeDataset(id, 1e9, 1);
    ASSERT_FALSE(g.ok()) << DatasetCode(id);
    EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange) << DatasetCode(id);
  }
}

TEST(DatasetsTest, DeterministicInSeed) {
  Result<Graph> a = MakeDataset(DatasetId::kEu, 0.02, 5);
  Result<Graph> b = MakeDataset(DatasetId::kEu, 0.02, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->edges(), b->edges());
}

TEST(DatasetsTest, RoadSubstituteHasRoadStructure) {
  Result<Graph> di = MakeDataset(DatasetId::kDimacsUsa, 0.25, 42);
  Result<Graph> ork = MakeDataset(DatasetId::kOrkut, 0.25, 42);
  ASSERT_TRUE(di.ok() && ork.ok());
  DegreeStats sdi = ComputeDegreeStats(*di);
  DegreeStats sor = ComputeDegreeStats(*ork);
  // The category-defining contrast the paper relies on: the road network
  // has tiny mean degree and almost no skew; the social graph is dense and
  // heavy-tailed.
  EXPECT_LT(sdi.mean_degree, 6.0);
  EXPECT_LT(sdi.skew, 0.5);
  EXPECT_GT(sor.mean_degree, 5 * sdi.mean_degree);
  EXPECT_GT(sor.skew, 4 * sdi.skew);
}

TEST(DatasetsTest, PowerLawSubstitutesAreSkewed) {
  for (DatasetId id : {DatasetId::kHollywood, DatasetId::kEnwiki,
                       DatasetId::kEu, DatasetId::kOrkut}) {
    Result<Graph> g = MakeDataset(id, 0.1, 42);
    ASSERT_TRUE(g.ok()) << DatasetCode(id) << ": " << g.status();
    DegreeStats s = ComputeDegreeStats(*g);
    EXPECT_GT(s.skew, 1.0) << DatasetCode(id);
    EXPECT_GT(s.top1pct_degree_share, 0.07) << DatasetCode(id);
  }
}

TEST(DatasetsTest, WebGraphIsMostSkewed) {
  Result<Graph> eu = MakeDataset(DatasetId::kEu, 0.1, 42);
  Result<Graph> ork = MakeDataset(DatasetId::kOrkut, 0.1, 42);
  ASSERT_TRUE(eu.ok() && ork.ok());
  EXPECT_GT(ComputeDegreeStats(*eu).skew, ComputeDegreeStats(*ork).skew);
}

}  // namespace
}  // namespace gnnpart
