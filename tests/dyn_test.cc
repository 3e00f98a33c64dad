// gnnpart::dyn — timestamped edge streams, incremental assignment, the
// migration engine and the decay-aware epoch driver (DESIGN.md §12). The
// load-bearing claims: the arrival schedule and the whole dynamic run are
// bit-identical for every --threads value and across repeated runs; with
// zero growth batches and both triggers off the run *is* the static
// pipeline bit-exactly; and every dyn/* validator trips by name on
// fabricated corruption.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/validators.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dyn/driver.h"
#include "dyn/migrate.h"
#include "dyn/stream.h"
#include "gen/generators.h"
#include "graph/split.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {
namespace {

Graph DynGraph() {
  RmatParams p;
  p.num_vertices = 1500;
  p.num_edges = 12000;
  Result<Graph> g = GenerateRmat(p, 97);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(EdgeStreamTest, SchedulesEveryEdgeExactlyOnce) {
  Graph g = DynGraph();
  Result<dyn::EdgeStream> stream = dyn::BuildEdgeStream(g, 5, 0.5, 42);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->num_batches(), 6u);
  EXPECT_EQ(stream->order.size(), g.num_edges());
  EXPECT_EQ(stream->batch_begin.front(), 0u);
  EXPECT_EQ(stream->batch_begin.back(), g.num_edges());
  // Batch 0 holds ~half the edges; growth batches tile the rest evenly.
  EXPECT_NEAR(static_cast<double>(stream->batch_begin[1]),
              0.5 * static_cast<double>(g.num_edges()), 1.0);
  std::vector<EdgeId> sorted = stream->order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], static_cast<EdgeId>(i));
  }
  EXPECT_TRUE(check::ValidateEdgeStream(*stream, g.num_edges()).ok());
}

TEST(EdgeStreamTest, ZeroGrowthPutsEverythingInBatchZero) {
  Graph g = DynGraph();
  Result<dyn::EdgeStream> stream = dyn::BuildEdgeStream(g, 0, 0.25, 42);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->num_batches(), 1u);
  EXPECT_EQ(stream->arrived_after(0), g.num_edges());
  EXPECT_TRUE(check::ValidateEdgeStream(*stream, g.num_edges()).ok());
}

TEST(EdgeStreamTest, RejectsBadArguments) {
  Graph g = DynGraph();
  EXPECT_FALSE(dyn::BuildEdgeStream(g, 4, 0.0, 42).ok());
  EXPECT_FALSE(dyn::BuildEdgeStream(g, 4, 1.5, 42).ok());
}

TEST(EdgeStreamTest, BitIdenticalAcrossThreadCountsAndRuns) {
  Graph g = DynGraph();
  dyn::EdgeStream reference;
  for (int threads : {1, 2, 8, 1}) {
    SetDefaultThreads(threads);
    Result<dyn::EdgeStream> stream = dyn::BuildEdgeStream(g, 7, 0.4, 42);
    ASSERT_TRUE(stream.ok());
    if (reference.order.empty()) {
      reference = *stream;
      continue;
    }
    EXPECT_EQ(stream->order, reference.order) << "threads=" << threads;
    EXPECT_EQ(stream->batch_begin, reference.batch_begin);
  }
  SetDefaultThreads(1);
}

TEST(EdgeStreamTest, PrefixGraphIsSortedArrivedEdges) {
  Graph g = DynGraph();
  // A 3-edge path split over 6 growth batches leaves its late batches empty.
  GraphBuilder tiny_builder(4, false);
  tiny_builder.AddEdge(0, 1);
  tiny_builder.AddEdge(1, 2);
  tiny_builder.AddEdge(2, 3);
  Result<Graph> tiny = tiny_builder.Build("tiny");
  ASSERT_TRUE(tiny.ok());
  ASSERT_EQ(tiny->num_edges(), 3u);
  struct Case {
    const Graph* graph;
    size_t growth_batches;
    double initial_fraction;
  };
  for (const Case& c : {Case{&g, 4, 0.5}, Case{&g, 0, 0.25},
                        Case{&g, 3, 1.0}, Case{&*tiny, 6, 0.4}}) {
    const Graph& full = *c.graph;
    Result<dyn::EdgeStream> stream =
        dyn::BuildEdgeStream(full, c.growth_batches, c.initial_fraction, 7);
    ASSERT_TRUE(stream.ok());
    for (size_t b = 0; b < stream->num_batches(); ++b) {
      SCOPED_TRACE("growth " + std::to_string(c.growth_batches) +
                   " fraction " + std::to_string(c.initial_fraction) +
                   " batch " + std::to_string(b));
      // Oracle: the arrived prefix of the stream order, sorted.
      std::vector<EdgeId> expected(
          stream->order.begin(),
          stream->order.begin() + stream->arrived_after(b));
      std::sort(expected.begin(), expected.end());
      const std::vector<EdgeId> arrived = dyn::ArrivedEdges(*stream, b);
      ASSERT_EQ(arrived, expected);
      Result<Graph> prefix = InducedEdgeSubgraph(full, arrived);
      ASSERT_TRUE(prefix.ok());
      ASSERT_EQ(prefix->num_edges(), arrived.size());
      EXPECT_EQ(prefix->num_vertices(), full.num_vertices());
      // Prefix edge i is exactly the i-th arrived canonical edge: the
      // identity the driver's full-id-space bookkeeping stands on.
      for (size_t i = 0; i < arrived.size(); ++i) {
        ASSERT_EQ(prefix->edge(i), full.edge(arrived[i]));
      }
    }
    if (c.graph == &*tiny) {
      // The tiny stream's last growth batch is empty.
      EXPECT_EQ(stream->arrived_after(stream->num_batches() - 1),
                stream->arrived_after(stream->num_batches() - 2));
    }
  }
}

TEST(DynValidatorTest, StreamMonotonicityTripsByName) {
  Graph g = DynGraph();
  Result<dyn::EdgeStream> stream = dyn::BuildEdgeStream(g, 3, 0.5, 42);
  ASSERT_TRUE(stream.ok());

  dyn::EdgeStream duplicated = *stream;
  duplicated.order[1] = duplicated.order[0];
  Status st = check::ValidateEdgeStream(duplicated, g.num_edges());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dyn/stream-monotonicity"), std::string::npos);

  dyn::EdgeStream shrunk = *stream;
  shrunk.batch_begin.back() = g.num_edges() - 1;
  st = check::ValidateEdgeStream(shrunk, g.num_edges());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dyn/stream-monotonicity"), std::string::npos);

  dyn::EdgeStream nonmono = *stream;
  std::swap(nonmono.batch_begin[1], nonmono.batch_begin[2]);
  st = check::ValidateEdgeStream(nonmono, g.num_edges());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dyn/stream-monotonicity"), std::string::npos);
}

TEST(DynValidatorTest, AssignmentContinuityTripsByName) {
  const std::vector<PartitionId> before = {0, 1, 2, kInvalidPartition};
  const std::vector<uint8_t> frozen = {1, 1, 0, 0};
  std::vector<PartitionId> after = {0, 1, 3, 2};
  EXPECT_TRUE(
      check::ValidateAssignmentContinuity(before, after, frozen).ok());
  after[1] = 2;  // moves a frozen entity without a repartition event
  Status st = check::ValidateAssignmentContinuity(before, after, frozen);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dyn/assignment-continuity"), std::string::npos);
}

TEST(DynValidatorTest, MigrationDiffConservationTripsByName) {
  const std::vector<PartitionId> before = {0, 0, 1, 2, kInvalidPartition};
  const std::vector<PartitionId> after = {1, 0, 1, 0, 2};
  const std::vector<uint8_t> materialized = {1, 1, 1, 1, 0};
  dyn::MigrationPlan plan =
      dyn::DiffAssignments(before, after, materialized, 3, 100);
  EXPECT_EQ(plan.moved_entities, 2u);  // ids 0 and 3; id 4 is unmaterialized
  EXPECT_EQ(plan.total_bytes, 200u);
  EXPECT_TRUE(check::ValidateMigrationPlan(before, after, materialized, 100,
                                           {}, {}, 0, plan)
                  .ok());

  dyn::MigrationPlan undercounted = plan;
  undercounted.moved_entities -= 1;
  Status st = check::ValidateMigrationPlan(before, after, materialized, 100,
                                           {}, {}, 0, undercounted);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dyn/migration-diff-conservation"),
            std::string::npos);

  dyn::MigrationPlan skewed = plan;
  skewed.egress_bytes[0] += 100;
  skewed.egress_bytes[2] -= 100;
  st = check::ValidateMigrationPlan(before, after, materialized, 100, {}, {},
                                    0, skewed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dyn/migration-diff-conservation"),
            std::string::npos);

  dyn::MigrationPlan broken_total = plan;
  broken_total.total_bytes += 1;
  st = check::ValidateMigrationPlan(before, after, materialized, 100, {}, {},
                                    0, broken_total);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dyn/migration-diff-conservation"),
            std::string::npos);
}

TEST(MigrationEngineTest, ReplicaDiffPricesOnlyNewBits) {
  // Vertex 0 gains partition 2 (one new replica, sourced from partition 0);
  // vertex 1 drops a bit (free); vertex 2 appears from nothing (free).
  const std::vector<uint64_t> masks_before = {0b011, 0b110, 0b000};
  const std::vector<uint64_t> masks_after = {0b111, 0b010, 0b001};
  dyn::MigrationPlan plan;
  plan.k = 3;
  plan.egress_bytes.assign(3, 0);
  dyn::AddReplicaDiff(masks_before, masks_after, 40, &plan);
  EXPECT_EQ(plan.replicas_created, 1u);
  EXPECT_EQ(plan.replica_bytes, 40u);
  EXPECT_EQ(plan.total_bytes, 40u);
  EXPECT_EQ(plan.egress_bytes[0], 40u);
  EXPECT_EQ(plan.egress_bytes[1], 0u);
}

TEST(MigrationEngineTest, PricingIsDeterministicAndPositive) {
  dyn::MigrationPlan plan;
  plan.k = 4;
  plan.moved_entities = 3;
  plan.entity_bytes = 3000;
  plan.total_bytes = 3000;
  plan.egress_bytes = {1000, 0, 2000, 0};
  const net::Fabric fabric(net::NetworkConfig::FromCluster(ClusterSpec{}), 4);
  const double t1 = dyn::PriceMigration(fabric, plan, nullptr);
  const double t2 = dyn::PriceMigration(fabric, plan, nullptr);
  EXPECT_GT(t1, 0.0);
  EXPECT_EQ(t1, t2);

  dyn::MigrationPlan empty;
  empty.k = 4;
  empty.egress_bytes.assign(4, 0);
  EXPECT_EQ(dyn::PriceMigration(fabric, empty, nullptr), 0.0);
}

dyn::DynConfig BaseConfig() {
  dyn::DynConfig config;
  config.growth_batches = 4;
  config.initial_fraction = 0.5;
  config.seed = 42;
  config.gnn.fanouts = GnnConfig::DefaultFanouts(config.gnn.num_layers);
  return config;
}

void ExpectReportsEqual(const dyn::DynReport& a, const dyn::DynReport& b) {
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (size_t i = 0; i < a.intervals.size(); ++i) {
    const dyn::DynInterval& x = a.intervals[i];
    const dyn::DynInterval& y = b.intervals[i];
    EXPECT_EQ(x.arrived_edges, y.arrived_edges) << "batch " << i;
    EXPECT_EQ(x.arrived_vertices, y.arrived_vertices) << "batch " << i;
    EXPECT_EQ(x.quality, y.quality) << "batch " << i;
    EXPECT_EQ(x.balance, y.balance) << "batch " << i;
    EXPECT_EQ(x.repartitioned, y.repartitioned) << "batch " << i;
    EXPECT_EQ(x.moved_entities, y.moved_entities) << "batch " << i;
    EXPECT_EQ(x.migration_bytes, y.migration_bytes) << "batch " << i;
    EXPECT_EQ(x.migration_seconds, y.migration_seconds) << "batch " << i;
    EXPECT_EQ(x.epoch_seconds, y.epoch_seconds) << "batch " << i;
  }
  EXPECT_EQ(a.repartitions, b.repartitions);
  EXPECT_EQ(a.total_moved_entities, b.total_moved_entities);
  EXPECT_EQ(a.total_replicas_created, b.total_replicas_created);
  EXPECT_EQ(a.total_migration_bytes, b.total_migration_bytes);
  EXPECT_EQ(a.total_migration_seconds, b.total_migration_seconds);
  EXPECT_EQ(a.total_epoch_seconds, b.total_epoch_seconds);
  EXPECT_EQ(a.total_cost_seconds, b.total_cost_seconds);
  EXPECT_EQ(a.final_quality, b.final_quality);
  EXPECT_EQ(a.final_balance, b.final_balance);
}

TEST(DynDriverTest, BitIdenticalAcrossThreadCountsAndRuns) {
  Graph g = DynGraph();
  dyn::DynConfig config = BaseConfig();
  config.repartition_every = 2;
  for (bool vertex_mode : {false, true}) {
    dyn::DynPartitionerSpec spec;
    spec.vertex_mode = vertex_mode;
    spec.edge = EdgePartitionerId::kHdrf;
    spec.vertex = VertexPartitionerId::kFennel;
    dyn::DynReport reference;
    bool have_reference = false;
    for (int threads : {1, 2, 8, 1}) {
      SetDefaultThreads(threads);
      Result<dyn::DynReport> report =
          dyn::RunDynamic(g, spec, 4, config);
      ASSERT_TRUE(report.ok()) << report.status();
      if (!have_reference) {
        reference = *report;
        have_reference = true;
        continue;
      }
      ExpectReportsEqual(*report, reference);
    }
    SetDefaultThreads(1);
  }
}

TEST(DynDriverTest, ZeroGrowthMatchesStaticDistGnnPipeline) {
  Graph g = DynGraph();
  dyn::DynConfig config = BaseConfig();
  config.growth_batches = 0;
  dyn::DynPartitionerSpec spec;
  spec.edge = EdgePartitionerId::kHdrf;
  Result<dyn::DynReport> report = dyn::RunDynamic(g, spec, 8, config);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->intervals.size(), 1u);
  EXPECT_EQ(report->repartitions, 0u);
  EXPECT_EQ(report->total_migration_bytes, 0u);

  // The static pipeline, with the same fabric and cluster shape.
  auto parts =
      MakeEdgePartitioner(EdgePartitionerId::kHdrf)->Partition(g, 8, 42);
  ASSERT_TRUE(parts.ok());
  GnnConfig gnn = config.gnn;
  ClusterSpec cluster = config.cluster;
  cluster.num_machines = 8;
  const net::Fabric fabric(config.network, 8);
  net::LinkUsage usage;
  usage.EnsureShape(fabric);
  DistGnnEpochReport expected =
      SimulateDistGnnEpoch(BuildDistGnnWorkload(g, *parts), gnn, cluster,
                           &fabric, &usage);
  EXPECT_EQ(report->distgnn.epoch_seconds, expected.epoch_seconds);
  EXPECT_EQ(report->distgnn.forward_seconds, expected.forward_seconds);
  EXPECT_EQ(report->distgnn.backward_seconds, expected.backward_seconds);
  EXPECT_EQ(report->distgnn.sync_seconds, expected.sync_seconds);
  EXPECT_EQ(report->distgnn.total_network_bytes,
            expected.total_network_bytes);
  EXPECT_EQ(report->total_epoch_seconds, expected.epoch_seconds);
}

TEST(DynDriverTest, ZeroGrowthMatchesStaticDistDglPipeline) {
  Graph g = DynGraph();
  dyn::DynConfig config = BaseConfig();
  config.growth_batches = 0;
  dyn::DynPartitionerSpec spec;
  spec.vertex_mode = true;
  spec.vertex = VertexPartitionerId::kFennel;
  Result<dyn::DynReport> report = dyn::RunDynamic(g, spec, 4, config);
  ASSERT_TRUE(report.ok()) << report.status();

  const VertexSplit split =
      VertexSplit::MakeRandom(g.num_vertices(), 0.1, 0.1, 42);
  auto parts = MakeVertexPartitioner(VertexPartitionerId::kFennel)
                   ->Partition(g, split, 4, 42);
  ASSERT_TRUE(parts.ok());
  GnnConfig gnn = config.gnn;
  ClusterSpec cluster = config.cluster;
  cluster.num_machines = 4;
  const net::Fabric fabric(config.network, 4);
  net::LinkUsage usage;
  usage.EnsureShape(fabric);
  Result<DistDglEpochProfile> profile = ProfileDistDglEpoch(
      g, *parts, split, gnn.fanouts, gnn.global_batch_size, 42);
  ASSERT_TRUE(profile.ok());
  DistDglEpochReport expected =
      SimulateDistDglEpoch(*profile, gnn, cluster, &fabric, &usage);
  EXPECT_EQ(report->distdgl.epoch_seconds, expected.epoch_seconds);
  EXPECT_EQ(report->distdgl.sampling_seconds, expected.sampling_seconds);
  EXPECT_EQ(report->distdgl.feature_seconds, expected.feature_seconds);
  EXPECT_EQ(report->distdgl.total_network_bytes,
            expected.total_network_bytes);
  EXPECT_EQ(report->total_epoch_seconds, expected.epoch_seconds);
}

TEST(DynDriverTest, PeriodTriggerMigratesAndImprovesOverNever) {
  Graph g = DynGraph();
  dyn::DynConfig config = BaseConfig();
  config.repartition_every = 1;
  dyn::DynPartitionerSpec spec;
  spec.edge = EdgePartitionerId::kHdrf;
  Result<dyn::DynReport> repart = dyn::RunDynamic(g, spec, 4, config);
  ASSERT_TRUE(repart.ok()) << repart.status();
  EXPECT_EQ(repart->repartitions, config.growth_batches);
  EXPECT_GT(repart->total_migration_bytes, 0u);
  EXPECT_GT(repart->total_migration_seconds, 0.0);
  EXPECT_GT(repart->total_moved_entities, 0u);

  config.repartition_every = 0;
  Result<dyn::DynReport> never = dyn::RunDynamic(g, spec, 4, config);
  ASSERT_TRUE(never.ok());
  EXPECT_EQ(never->repartitions, 0u);
  EXPECT_EQ(never->total_migration_bytes, 0u);
  // Repartitioning must recover quality the greedy arrivals decayed.
  EXPECT_LT(repart->final_quality, never->final_quality);
}

TEST(DynDriverTest, QualityThresholdTriggerFires) {
  Graph g = DynGraph();
  dyn::DynConfig config = BaseConfig();
  config.growth_batches = 6;
  config.initial_fraction = 0.3;
  config.quality_threshold = 1.01;
  dyn::DynPartitionerSpec spec;
  spec.vertex_mode = true;
  spec.vertex = VertexPartitionerId::kReldg;
  Result<dyn::DynReport> report = dyn::RunDynamic(g, spec, 4, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->repartitions, 1u);
  EXPECT_GT(report->total_migration_bytes, 0u);
}

TEST(DynDriverTest, EpochsPerBatchScalesTotalsOnly) {
  Graph g = DynGraph();
  dyn::DynConfig config = BaseConfig();
  dyn::DynPartitionerSpec spec;
  spec.edge = EdgePartitionerId::kDbh;
  Result<dyn::DynReport> one = dyn::RunDynamic(g, spec, 4, config);
  ASSERT_TRUE(one.ok());
  config.epochs_per_batch = 3;
  Result<dyn::DynReport> three = dyn::RunDynamic(g, spec, 4, config);
  ASSERT_TRUE(three.ok());
  ASSERT_EQ(one->intervals.size(), three->intervals.size());
  for (size_t i = 0; i < one->intervals.size(); ++i) {
    EXPECT_EQ(one->intervals[i].epoch_seconds,
              three->intervals[i].epoch_seconds);
  }
  EXPECT_EQ(three->total_epoch_seconds, 3.0 * one->total_epoch_seconds);
}

TEST(DynDriverTest, RejectsBadArguments) {
  Graph g = DynGraph();
  dyn::DynPartitionerSpec spec;
  dyn::DynConfig config = BaseConfig();
  EXPECT_FALSE(dyn::RunDynamic(g, spec, 0, config).ok());
  config.epochs_per_batch = 0;
  EXPECT_FALSE(dyn::RunDynamic(g, spec, 4, config).ok());
}

}  // namespace
}  // namespace gnnpart
