#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "harness/cache.h"
#include "harness/experiment.h"
#include "obs/events.h"
#include "trace/analysis.h"

namespace gnnpart {
namespace {

ExperimentContext TinyContext() {
  ExperimentContext ctx;
  ctx.scale = 0.02;  // tiny graphs: harness plumbing, not statistics
  ctx.seed = 42;
  ctx.cache_dir = "";  // no cache in unit tests
  ctx.global_batch_size = 64;
  return ctx;
}

TEST(ContextTest, FromEnvReadsVariables) {
  ::setenv("GNNPART_SCALE", "0.5", 1);
  ::setenv("GNNPART_SEED", "77", 1);
  ::setenv("GNNPART_CACHE_DIR", "/tmp/somewhere", 1);
  ::setenv("GNNPART_GBS", "512", 1);
  ExperimentContext ctx = ExperimentContext::FromEnv();
  EXPECT_DOUBLE_EQ(ctx.scale, 0.5);
  EXPECT_EQ(ctx.seed, 77u);
  EXPECT_EQ(ctx.cache_dir, "/tmp/somewhere");
  EXPECT_EQ(ctx.global_batch_size, 512u);
  ::unsetenv("GNNPART_SCALE");
  ::unsetenv("GNNPART_SEED");
  ::unsetenv("GNNPART_CACHE_DIR");
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

TEST(CacheTest, RoundTrip) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("gnnpart_cache_test_" + std::to_string(::getpid())))
                        .string();
  PartitionCache cache(dir);
  std::vector<PartitionId> assignment{0, 1, 2, 1, 0};
  ASSERT_TRUE(cache.Store("some/key with spaces", 3, assignment, 1.25).ok());
  double seconds = 0;
  auto loaded = cache.Load("some/key with spaces", 3, &seconds);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, assignment);
  EXPECT_DOUBLE_EQ(seconds, 1.25);
  // Wrong k is a miss.
  EXPECT_FALSE(cache.Load("some/key with spaces", 4, &seconds).ok());
  // Unknown key is a miss.
  EXPECT_FALSE(cache.Load("unknown", 3, &seconds).ok());
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, DisabledCacheAlwaysMisses) {
  PartitionCache cache("");
  EXPECT_FALSE(cache.enabled());
  EXPECT_TRUE(cache.Store("k", 2, {0, 1}, 1.0).ok());
  EXPECT_FALSE(cache.Load("k", 2, nullptr).ok());
}

TEST(RunPartitionerTest, CachedRunsAgree) {
  ExperimentContext ctx = TinyContext();
  ctx.cache_dir = (std::filesystem::temp_directory_path() /
                   ("gnnpart_runcache_" + std::to_string(::getpid())))
                      .string();
  Result<DatasetBundle> bundle = LoadDataset(ctx, DatasetId::kEnwiki);
  ASSERT_TRUE(bundle.ok());
  Result<EdgePartitioning> first = RunEdgePartitioner(
      ctx, DatasetId::kEnwiki, bundle->graph, EdgePartitionerId::kDbh, 4);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<EdgePartitioning> second = RunEdgePartitioner(
      ctx, DatasetId::kEnwiki, bundle->graph, EdgePartitionerId::kDbh, 4);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->assignment, second->assignment);
  EXPECT_DOUBLE_EQ(first->partitioning_seconds, second->partitioning_seconds);
  std::filesystem::remove_all(ctx.cache_dir);
}

TEST(DistGnnGridTest, FullGridRunsAndHasShape) {
  ExperimentContext ctx = TinyContext();
  Result<DistGnnGridResult> result =
      RunDistGnnGrid(ctx, DatasetId::kOrkut, 4);
  ASSERT_TRUE(result.ok()) << result.status();
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
  ExperimentContext ctx = TinyContext();
  Result<DistDglGridResult> result =
      RunDistDglGrid(ctx, DatasetId::kOrkut, 4, GnnArchitecture::kGraphSage);
  ASSERT_TRUE(result.ok()) << result.status();
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
  ExperimentContext ctx = TinyContext();
  ctx.cache_dir = (std::filesystem::temp_directory_path() /
                   ("gnnpart_tracecache_" + std::to_string(::getpid())))
                      .string();
  Result<DatasetBundle> bundle = LoadDataset(ctx, DatasetId::kEnwiki);
  ASSERT_TRUE(bundle.ok());
  GnnConfig config;
  config.num_layers = 2;
  config.feature_size = 32;
  config.hidden_dim = 32;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(2);
  ClusterSpec cluster = ctx.MakeCluster(4);

  // Profile through the cache, then simulate with an event log attached.
  auto trace_epoch = [&](obs::EventLog* log) -> Result<DistDglEpochReport> {
    Result<DistDglEpochProfile> profile = ProfileWithCache(
        ctx, DatasetId::kEnwiki, bundle->graph, bundle->split,
        VertexPartitionerId::kLdg, 4, config.num_layers,
        ctx.global_batch_size);
    if (!profile.ok()) return profile.status();
    return SimulateDistDglEpoch(*profile, config, cluster, nullptr, nullptr,
                                log);
  };
  obs::EventLog first_log;
  Result<DistDglEpochReport> first = trace_epoch(&first_log);
  ASSERT_TRUE(first.ok()) << first.status();
  // Second call hits the profile cache — a pure replay that must yield
  // the identical report and trace.
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
  std::filesystem::remove_all(ctx.cache_dir);
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
