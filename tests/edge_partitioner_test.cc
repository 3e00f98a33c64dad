#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "check_fixture.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "metrics/partition_metrics.h"
#include "partition/edge/hdrf.h"
#include "partition/edge/hep.h"
#include "partition/edge/registry.h"

namespace gnnpart {
namespace {

Graph TestGraph() {
  RmatParams p;
  p.num_vertices = 2000;
  p.num_edges = 20000;
  Result<Graph> g = GenerateRmat(p, 123);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(EdgeRegistryTest, SixPartitionersInPaperOrder) {
  auto all = AllEdgePartitioners();
  ASSERT_EQ(all.size(), 6u);
  std::vector<std::string> names;
  for (auto id : all) names.push_back(MakeEdgePartitioner(id)->name());
  EXPECT_EQ(names, (std::vector<std::string>{"Random", "DBH", "HDRF", "2PS-L",
                                             "HEP10", "HEP100"}));
}

TEST(EdgeRegistryTest, ParseNames) {
  for (auto id : AllEdgePartitioners()) {
    auto name = MakeEdgePartitioner(id)->name();
    Result<EdgePartitionerId> parsed = ParseEdgePartitionerName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_FALSE(ParseEdgePartitionerName("NotAPartitioner").ok());
}

TEST(EdgeRegistryTest, CategoriesMatchPaperTable2) {
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kRandom)->category(),
            "stateless streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kDbh)->category(),
            "stateless streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kHdrf)->category(),
            "stateful streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kTwoPsL)->category(),
            "stateful streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kHep10)->category(),
            "hybrid");
}

class EdgePartitionerParamTest
    : public ::testing::TestWithParam<EdgePartitionerId> {};

TEST_P(EdgePartitionerParamTest, EveryEdgeAssignedExactlyOnce) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  for (PartitionId k : {1u, 4u, 32u}) {
    Result<EdgePartitioning> parts = partitioner->Partition(g, k, 42);
    ASSERT_TRUE(parts.ok()) << partitioner->name() << ": " << parts.status();
    ASSERT_EQ(parts->assignment.size(), g.num_edges());
    for (PartitionId p : parts->assignment) EXPECT_LT(p, k);
    auto counts = parts->EdgeCounts();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    EXPECT_EQ(total, g.num_edges());
  }
}

TEST_P(EdgePartitionerParamTest, DeterministicInSeed) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  Result<EdgePartitioning> a = partitioner->Partition(g, 8, 42);
  Result<EdgePartitioning> b = partitioner->Partition(g, 8, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
}

TEST_P(EdgePartitionerParamTest, RejectsInvalidK) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  EXPECT_FALSE(partitioner->Partition(g, 0, 42).ok());
  EXPECT_FALSE(partitioner->Partition(g, 65, 42).ok());
}

TEST_P(EdgePartitionerParamTest, KEqualsOneIsTrivial) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  Result<EdgePartitioning> parts = partitioner->Partition(g, 1, 42);
  ASSERT_TRUE(parts.ok());
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(g, *parts);
  // RF is normalized by |V| (paper definition), so isolated vertices keep
  // it slightly below 1 even for k = 1.
  EXPECT_LE(m.replication_factor, 1.0);
  EXPECT_GT(m.replication_factor, 0.9);
  EXPECT_DOUBLE_EQ(m.edge_balance, 1.0);
}

TEST_P(EdgePartitionerParamTest, EdgeBalanceWithinBound) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  Result<EdgePartitioning> parts = partitioner->Partition(g, 8, 42);
  ASSERT_TRUE(parts.ok());
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(g, *parts);
  // The paper observes edge balance <= 1.11 for all edge partitioners; we
  // allow a slightly wider envelope for the hash-based ones at this scale.
  EXPECT_LE(m.edge_balance, 1.25) << partitioner->name();
}

TEST_P(EdgePartitionerParamTest, PassesFullValidation) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  for (PartitionId k : {2u, 8u}) {
    Result<EdgePartitioning> parts = partitioner->Partition(g, k, 42);
    ASSERT_TRUE(parts.ok());
    EXPECT_TRUE(FullyValidEdgePartitioning(g, *parts))
        << partitioner->name() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEdgePartitioners, EdgePartitionerParamTest,
    ::testing::ValuesIn(AllEdgePartitioners()),
    [](const ::testing::TestParamInfo<EdgePartitionerId>& info) {
      std::string name = MakeEdgePartitioner(info.param)->name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(EdgePartitionerQualityTest, AdvancedPartitionersBeatRandom) {
  Graph g = TestGraph();
  auto random = MakeEdgePartitioner(EdgePartitionerId::kRandom)
                    ->Partition(g, 16, 42);
  ASSERT_TRUE(random.ok());
  double rf_random =
      ComputeEdgePartitionMetrics(g, *random).replication_factor;
  for (auto id : {EdgePartitionerId::kDbh, EdgePartitionerId::kHdrf,
                  EdgePartitionerId::kTwoPsL, EdgePartitionerId::kHep10,
                  EdgePartitionerId::kHep100}) {
    auto partitioner = MakeEdgePartitioner(id);
    auto parts = partitioner->Partition(g, 16, 42);
    ASSERT_TRUE(parts.ok());
    double rf = ComputeEdgePartitionMetrics(g, *parts).replication_factor;
    EXPECT_LT(rf, rf_random) << partitioner->name();
  }
}

TEST(EdgePartitionerQualityTest, Hep100BeatsStreamingPartitioners) {
  // Paper Fig. 2: HEP100 always achieves the lowest replication factor.
  Graph g = TestGraph();
  auto hep = MakeEdgePartitioner(EdgePartitionerId::kHep100)
                 ->Partition(g, 16, 42);
  ASSERT_TRUE(hep.ok());
  double rf_hep = ComputeEdgePartitionMetrics(g, *hep).replication_factor;
  for (auto id : {EdgePartitionerId::kRandom, EdgePartitionerId::kDbh,
                  EdgePartitionerId::kHdrf}) {
    auto parts = MakeEdgePartitioner(id)->Partition(g, 16, 42);
    ASSERT_TRUE(parts.ok());
    EXPECT_LT(rf_hep,
              ComputeEdgePartitionMetrics(g, *parts).replication_factor)
        << MakeEdgePartitioner(id)->name();
  }
}

TEST(EdgePartitionerQualityTest, MorePartitionsRaiseReplicationFactor) {
  // Paper: "more partitions lead to larger replication factors".
  Graph g = TestGraph();
  for (auto id : AllEdgePartitioners()) {
    auto partitioner = MakeEdgePartitioner(id);
    auto p4 = partitioner->Partition(g, 4, 42);
    auto p32 = partitioner->Partition(g, 32, 42);
    ASSERT_TRUE(p4.ok() && p32.ok());
    EXPECT_LE(ComputeEdgePartitionMetrics(g, *p4).replication_factor,
              ComputeEdgePartitionMetrics(g, *p32).replication_factor + 1e-9)
        << partitioner->name();
  }
}

TEST(HepTest, NamesEncodeTau) {
  EXPECT_EQ(HepPartitioner(10.0).name(), "HEP10");
  EXPECT_EQ(HepPartitioner(100.0).name(), "HEP100");
}

TEST(HepTest, RejectsNonPositiveTau) {
  Graph g = TestGraph();
  HepPartitioner hep(0.0);
  EXPECT_FALSE(hep.Partition(g, 4, 42).ok());
}

/// Expects an InvalidArgument status whose message names `parameter`.
void ExpectRejected(const Result<EdgePartitioning>& result,
                    const std::string& parameter) {
  ASSERT_FALSE(result.ok()) << parameter;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(parameter), std::string::npos)
      << result.status().message();
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(HepTest, RejectsNonFiniteOrNonPositiveParameters) {
  // A NaN tau compares false against every degree, which used to make
  // every vertex low-degree without a word.
  Graph g = TestGraph();
  for (double tau : {kNan, kInf, -kInf, -1.0}) {
    ExpectRejected(HepPartitioner(tau).Partition(g, 4, 42), "tau");
  }
  for (double alpha : {kNan, kInf, 0.0, -1.05}) {
    ExpectRejected(HepPartitioner(10.0, alpha).Partition(g, 4, 42), "alpha");
  }
  for (double lambda : {kNan, kInf, 0.0, -1.1}) {
    ExpectRejected(HepPartitioner(10.0, 1.05, lambda).Partition(g, 4, 42),
                   "lambda");
  }
}

TEST(HdrfTest, RejectsNonFiniteOrNegativeParameters) {
  Graph g = TestGraph();
  for (double lambda : {kNan, kInf, -kInf, -0.5}) {
    ExpectRejected(HdrfPartitioner(lambda).Partition(g, 4, 42), "lambda");
  }
  for (double epsilon : {kNan, kInf, 0.0, -1.0}) {
    ExpectRejected(HdrfPartitioner(1.1, epsilon).Partition(g, 4, 42),
                   "epsilon");
  }
  // lambda = 0 (replication score only) is the ablation's first point.
  EXPECT_TRUE(HdrfPartitioner(0.0).Partition(g, 4, 42).ok());
}

TEST(HepTest, LargerTauGivesLowerReplicationFactor) {
  Graph g = TestGraph();
  auto p10 = HepPartitioner(10.0).Partition(g, 16, 42);
  auto p100 = HepPartitioner(100.0).Partition(g, 16, 42);
  ASSERT_TRUE(p10.ok() && p100.ok());
  EXPECT_LE(ComputeEdgePartitionMetrics(g, *p100).replication_factor,
            ComputeEdgePartitionMetrics(g, *p10).replication_factor + 0.05);
}

TEST(DbhTest, HashesLowDegreeEndpoint) {
  // Star graph: every edge touches the hub; DBH must hash the leaf, so all
  // edges with the same leaf land together, and the hub is replicated.
  GraphBuilder b(101, false);
  for (VertexId v = 1; v <= 100; ++v) b.AddEdge(0, v);
  Result<Graph> g = b.Build();
  ASSERT_TRUE(g.ok());
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kDbh)
                   ->Partition(*g, 4, 42);
  ASSERT_TRUE(parts.ok());
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(*g, *parts);
  // Leaves have replication factor 1; only the hub is replicated (to at
  // most 4 partitions): RF <= (100 * 1 + 4) / 101.
  EXPECT_LE(m.replication_factor, 1.05);
}

TEST(EmptyGraphTest, PartitionersRejectEmptyEdgeSet) {
  GraphBuilder b(5, false);
  Result<Graph> g = b.Build();
  ASSERT_TRUE(g.ok());
  for (auto id : AllEdgePartitioners()) {
    EXPECT_FALSE(MakeEdgePartitioner(id)->Partition(*g, 4, 42).ok());
  }
}

}  // namespace
}  // namespace gnnpart
