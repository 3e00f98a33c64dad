#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "harness/experiment.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "trace/analysis.h"

namespace gnnpart {
namespace {

uint64_t ProfiledEpochs() {
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (row.name == "sim/distdgl/epochs_profiled") return row.value;
  }
  return 0;
}

ExperimentContext TinyContext() {
  ExperimentContext ctx;
  ctx.scale = 0.02;  // tiny graphs: harness plumbing, not statistics
  ctx.seed = 42;
  ctx.global_batch_size = 64;
  return ctx;
}

TEST(ContextTest, FromEnvReadsVariables) {
  ::setenv("GNNPART_SCALE", "0.5", 1);
  ::setenv("GNNPART_SEED", "77", 1);
  ::setenv("GNNPART_GBS", "512", 1);
  ExperimentContext ctx = ExperimentContext::FromEnv();
  EXPECT_DOUBLE_EQ(ctx.scale, 0.5);
  EXPECT_EQ(ctx.seed, 77u);
  EXPECT_EQ(ctx.global_batch_size, 512u);
  ::unsetenv("GNNPART_SCALE");
  ::unsetenv("GNNPART_SEED");
  ::unsetenv("GNNPART_GBS");
}

TEST(ContextTest, StudyMachineCountsMatchPaper) {
  EXPECT_EQ(StudyMachineCounts(), (std::vector<int>{4, 8, 16, 32}));
}

TEST(GridTest, TwentySevenConfigurations) {
  ExperimentContext ctx = TinyContext();
  auto grid = HyperParameterGrid(ctx, GnnArchitecture::kGraphSage);
  EXPECT_EQ(grid.size(), 27u);
  // Every combination of Table 3 appears exactly once.
  std::set<std::tuple<size_t, size_t, int>> seen;
  for (const GnnConfig& c : grid) {
    seen.insert({c.feature_size, c.hidden_dim, c.num_layers});
    EXPECT_EQ(c.fanouts.size(), static_cast<size_t>(c.num_layers));
    EXPECT_EQ(c.global_batch_size, 64u);
  }
  EXPECT_EQ(seen.size(), 27u);
}

TEST(DatasetLoadTest, BundleIsConsistent) {
  ExperimentContext ctx = TinyContext();
  Result<DatasetBundle> bundle = LoadDataset(ctx, DatasetId::kOrkut);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->split.num_vertices(), bundle->graph.num_vertices());
  EXPECT_GT(bundle->split.train_vertices().size(), 0u);
}

TEST(DistGnnGridTest, FullGridRunsAndHasShape) {
  Study study(TinyContext());
  Result<const DistGnnGridResult*> grid =
      study.DistGnnGrid(DatasetId::kOrkut, 4);
  ASSERT_TRUE(grid.ok()) << grid.status();
  const DistGnnGridResult* result = *grid;
  EXPECT_EQ(result->partitioners.size(), 6u);
  EXPECT_EQ(result->partitioners.front(), "Random");
  EXPECT_EQ(result->grid.size(), 27u);
  for (const auto& name : result->partitioners) {
    EXPECT_EQ(result->reports.at(name).size(), 27u);
    EXPECT_GE(result->partition_seconds.at(name), 0.0);
  }
  auto speedups = result->SpeedupsVsRandom("HEP100");
  ASSERT_EQ(speedups.size(), 27u);
  for (double s : speedups) EXPECT_GT(s, 0.0);
  // Random vs itself is exactly 1.
  for (double s : result->SpeedupsVsRandom("Random")) {
    EXPECT_DOUBLE_EQ(s, 1.0);
  }
  auto mem = result->MemoryPercentOfRandom("HEP100");
  for (double m : mem) EXPECT_GT(m, 0.0);
}

TEST(DistDglGridTest, FullGridRunsAndHasShape) {
  Study study(TinyContext());
  Result<const DistDglGridResult*> grid =
      study.DistDglGrid(DatasetId::kOrkut, 4, GnnArchitecture::kGraphSage);
  ASSERT_TRUE(grid.ok()) << grid.status();
  const DistDglGridResult* result = *grid;
  EXPECT_EQ(result->partitioners.size(), 6u);
  EXPECT_EQ(result->grid.size(), 27u);
  for (const auto& name : result->partitioners) {
    EXPECT_EQ(result->reports.at(name).size(), 27u);
    EXPECT_EQ(result->profiles.at(name).size(), 3u);  // layers 2, 3, 4
  }
  for (double s : result->SpeedupsVsRandom("Random")) {
    EXPECT_DOUBLE_EQ(s, 1.0);
  }
  // ProfileFor maps layers to the right profile.
  const auto& p3 = result->ProfileFor("Metis", 3);
  EXPECT_GT(p3.steps, 0u);
}

TEST(TraceDistDglEpochTest, RetracesFromCachedProfileWithoutResampling) {
  Study study(TinyContext());
  GnnConfig config;
  config.num_layers = 2;
  config.feature_size = 32;
  config.hidden_dim = 32;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(2);
  ClusterSpec cluster = study.ctx().MakeCluster(4);

  // Profile through the memo, then simulate with an event log attached.
  auto trace_epoch = [&](obs::EventLog* log) -> Result<DistDglEpochReport> {
    Result<const DistDglEpochProfile*> profile =
        study.Profile(DatasetId::kEnwiki, VertexPartitionerId::kLdg, 4,
                      config.num_layers, study.ctx().global_batch_size);
    if (!profile.ok()) return profile.status();
    return SimulateDistDglEpoch(**profile, config, cluster, nullptr, nullptr,
                                log);
  };
  obs::EventLog first_log;
  Result<DistDglEpochReport> first = trace_epoch(&first_log);
  ASSERT_TRUE(first.ok()) << first.status();
  // The second lookup returns the memoized profile — a pure replay that
  // must yield the identical report and trace without resampling.
  const uint64_t profiled = ProfiledEpochs();
  obs::EventLog second_log;
  Result<DistDglEpochReport> second = trace_epoch(&second_log);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->epoch_seconds, second->epoch_seconds);
  EXPECT_EQ(first->sampling_seconds, second->sampling_seconds);
  const obs::EpochEvents& first_epoch = first_log.epochs().back();
  const obs::EpochEvents& second_epoch = second_log.epochs().back();
  ASSERT_EQ(first_epoch.events.size(), second_epoch.events.size());
  EXPECT_GT(first_epoch.events.size(), 0u);
  trace::DistDglPhaseSeconds rebuilt =
      trace::ReconstructDistDglReport(second_epoch);
  EXPECT_EQ(rebuilt.epoch, second->epoch_seconds);
  EXPECT_EQ(ProfiledEpochs(), profiled);
}

TEST(StudyTest, EachVertexPartitioningRunsOnce) {
  // One DistDGL grid profiles layers 2-4 per partitioner; the extra
  // profile requests at a second batch size reuse the same partitionings.
  // Every vertex partitioner must therefore assign |V| vertices once.
  obs::ResetForTest();
  Study study(TinyContext());
  ASSERT_TRUE(
      study.DistDglGrid(DatasetId::kEnwiki, 4, GnnArchitecture::kGraphSage)
          .ok());
  for (VertexPartitionerId id : AllVertexPartitioners()) {
    for (int layers : {2, 3, 4}) {
      ASSERT_TRUE(study.Profile(DatasetId::kEnwiki, id, 4, layers, 32).ok());
    }
  }
  Result<const DatasetBundle*> bundle = study.Dataset(DatasetId::kEnwiki);
  ASSERT_TRUE(bundle.ok());
  const uint64_t n = (*bundle)->graph.num_vertices();
  // Metis and KaHIP share the multilevel engine's counter.
  const std::map<std::string, uint64_t> expected = {
      {"partition/vertex/Random/vertices_assigned", n},
      {"partition/vertex/LDG/vertices_assigned", n},
      {"partition/vertex/Spinner/vertices_assigned", n},
      {"partition/vertex/ByteGNN/vertices_assigned", n},
      {"partition/vertex/multilevel/vertices_assigned", 2 * n},
  };
  std::map<std::string, uint64_t> seen;
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (expected.count(row.name)) seen[row.name] = row.value;
  }
  EXPECT_EQ(seen, expected);
}

TEST(RunPartitionerTest, CachedRunsAgree) {
  // Repeated lookups return the one memoized run, so every table that
  // asks for it sees the same metrics and the same measured seconds.
  Study study(TinyContext());
  Result<const EdgeRun*> first =
      study.Edge(DatasetId::kEnwiki, EdgePartitionerId::kDbh, 4);
  Result<const EdgeRun*> second =
      study.Edge(DatasetId::kEnwiki, EdgePartitionerId::kDbh, 4);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_GE((*first)->partitioning_seconds, 0.0);
  EXPECT_EQ((*first)->workload.k, 4u);
  Result<const DistGnnGridResult*> grid =
      study.DistGnnGrid(DatasetId::kEnwiki, 4);
  ASSERT_TRUE(grid.ok());
  // The grid reads the same memoized run.
  EXPECT_EQ((*grid)->partition_seconds.at("DBH"),
            (*first)->partitioning_seconds);
  EXPECT_EQ(*grid, *study.DistGnnGrid(DatasetId::kEnwiki, 4));
}

TEST(StudyTest, FailedLookupsReturnTheError) {
  ExperimentContext ctx = TinyContext();
  ctx.scale = 0;  // MakeDataset rejects it
  Study study(ctx);
  EXPECT_FALSE(study.Dataset(DatasetId::kEnwiki).ok());
  EXPECT_FALSE(study.Edge(DatasetId::kEnwiki, EdgePartitionerId::kDbh, 4).ok());
  EXPECT_FALSE(
      study.Vertex(DatasetId::kEnwiki, VertexPartitionerId::kLdg, 4).ok());
  EXPECT_FALSE(
      study.Profile(DatasetId::kEnwiki, VertexPartitionerId::kLdg, 4, 2, 32)
          .ok());
  EXPECT_FALSE(study.DistGnnGrid(DatasetId::kEnwiki, 4).ok());
  Result<const DistDglGridResult*> grid =
      study.DistDglGrid(DatasetId::kEnwiki, 4, GnnArchitecture::kGraphSage);
  ASSERT_FALSE(grid.ok());
  EXPECT_NE(grid.status().message().find("scale"), std::string::npos);
}

TEST(AmortizationTest, MatchesHandComputation) {
  // Random epochs take 10 s, partitioner epochs 8 s, partitioning cost 6 s
  // -> amortized after 3 epochs.
  EXPECT_DOUBLE_EQ(AmortizationEpochs({10, 10}, {8, 8}, 6.0), 3.0);
  // Slowdown -> no amortization.
  EXPECT_LT(AmortizationEpochs({10}, {11}, 6.0), 0);
  // Empty input -> no amortization.
  EXPECT_LT(AmortizationEpochs({}, {}, 6.0), 0);
}

TEST(AmortizationTest, Formatting) {
  EXPECT_EQ(FormatAmortization(-1), "no");
  EXPECT_EQ(FormatAmortization(3.456), "3.46");
}

}  // namespace
}  // namespace gnnpart
