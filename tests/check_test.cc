// Failure-path tests for check/validators.h: every corruption mode must be
// caught and reported with its own stable invariant name, and valid objects
// must pass. The invariant prefixes asserted here are part of the
// validators' contract (tools and CI grep for them).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/validators.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "gnn/model_config.h"
#include "harness/cache.h"
#include "metrics/partition_metrics.h"
#include "obs/events.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "sampling/block_sampler.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {
namespace {

void ExpectViolation(const Status& st, const std::string& invariant) {
  ASSERT_FALSE(st.ok()) << "expected a '" << invariant << "' violation";
  EXPECT_NE(st.ToString().find(invariant + ":"), std::string::npos)
      << "wrong invariant named: " << st;
}

Graph TestGraph() {
  RmatParams p;
  p.num_vertices = 500;
  p.num_edges = 4000;
  Result<Graph> g = GenerateRmat(p, 7);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// --- graph invariants (fabricated via the raw-parts test hatch) ---

// Triangle 0-1-2: the smallest graph exercising every CSR property.
Graph Triangle() {
  return Graph::FromRawPartsForTest("triangle", false, {0, 2, 4, 6},
                                    {1, 2, 0, 2, 0, 1},
                                    {{0, 1}, {0, 2}, {1, 2}});
}

TEST(ValidateGraphTest, AcceptsValidGraphs) {
  EXPECT_TRUE(check::ValidateGraph(Triangle()).ok());
  EXPECT_TRUE(check::ValidateGraph(TestGraph()).ok());
}

TEST(ValidateGraphTest, NeighborOutOfRange) {
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 4, 6},
                                       {1, 7, 0, 2, 0, 1},
                                       {{0, 1}, {0, 2}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/neighbor-range");
}

TEST(ValidateGraphTest, SelfLoopInAdjacency) {
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 4, 6},
                                       {0, 1, 0, 2, 0, 1},
                                       {{0, 1}, {0, 2}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/self-loop");
}

TEST(ValidateGraphTest, DuplicateAdjacencyEntry) {
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 4, 6},
                                       {1, 1, 0, 2, 0, 1},
                                       {{0, 1}, {0, 2}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/adjacency-duplicate");
}

TEST(ValidateGraphTest, UnsortedAdjacency) {
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 4, 6},
                                       {2, 1, 0, 2, 0, 1},
                                       {{0, 1}, {0, 2}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/adjacency-sorted");
}

TEST(ValidateGraphTest, AsymmetricAdjacency) {
  // 0 lists 1, but 1 only lists 2.
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 3, 5},
                                       {1, 2, 2, 0, 1},
                                       {{0, 1}, {0, 2}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/asymmetric-adjacency");
}

TEST(ValidateGraphTest, EdgeNotCanonical) {
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 4, 6},
                                       {1, 2, 0, 2, 0, 1},
                                       {{1, 0}, {0, 2}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/edge-canonical");
}

TEST(ValidateGraphTest, EdgeListUnsorted) {
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 4, 6},
                                       {1, 2, 0, 2, 0, 1},
                                       {{0, 2}, {0, 1}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/edge-order");
}

TEST(ValidateGraphTest, EdgeMissingFromAdjacency) {
  // Path 0-1-2 adjacency, but the edge list claims the chord (0, 2).
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 1, 3, 4},
                                       {1, 0, 2, 1},
                                       {{0, 1}, {0, 2}, {1, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/edge-not-in-adjacency");
}

TEST(ValidateGraphTest, AdjacencyEntriesWithoutEdges) {
  // Triangle adjacency, but the edge list is missing (1, 2).
  Graph g = Graph::FromRawPartsForTest("bad", false, {0, 2, 4, 6},
                                       {1, 2, 0, 2, 0, 1},
                                       {{0, 1}, {0, 2}});
  ExpectViolation(check::ValidateGraph(g), "graph/adjacency-count");
}

// --- partitioning invariants ---

TEST(ValidatePartitioningTest, AcceptsEveryRegisteredPartitioner) {
  Graph g = TestGraph();
  VertexSplit split = VertexSplit::MakeRandom(g.num_vertices(), 0.1, 0.1, 5);
  for (EdgePartitionerId id : AllEdgePartitioners()) {
    Result<EdgePartitioning> parts =
        MakeEdgePartitioner(id)->Partition(g, 4, 11);
    ASSERT_TRUE(parts.ok());
    EXPECT_TRUE(check::ValidateEdgePartitioning(g, *parts).ok());
  }
  for (VertexPartitionerId id : AllVertexPartitioners()) {
    Result<VertexPartitioning> parts =
        MakeVertexPartitioner(id)->Partition(g, split, 4, 11);
    ASSERT_TRUE(parts.ok());
    EXPECT_TRUE(check::ValidateVertexPartitioning(g, *parts).ok());
  }
}

TEST(ValidatePartitioningTest, RejectsKOutOfRange) {
  Graph g = TestGraph();
  EdgePartitioning parts;
  parts.k = 0;
  parts.assignment.assign(g.num_edges(), 0);
  ExpectViolation(check::ValidateEdgePartitioning(g, parts),
                  "partition/k-range");
  parts.k = kMaxPartitions + 1;
  ExpectViolation(check::ValidateEdgePartitioning(g, parts),
                  "partition/k-range");
}

TEST(ValidatePartitioningTest, RejectsWrongAssignmentSize) {
  Graph g = TestGraph();
  EdgePartitioning parts;
  parts.k = 4;
  parts.assignment.assign(g.num_edges() - 1, 0);
  ExpectViolation(check::ValidateEdgePartitioning(g, parts),
                  "partition/assignment-size");
  VertexPartitioning vparts;
  vparts.k = 4;
  vparts.assignment.assign(g.num_vertices() + 1, 0);
  ExpectViolation(check::ValidateVertexPartitioning(g, vparts),
                  "partition/assignment-size");
}

TEST(ValidatePartitioningTest, RejectsIdOutOfRange) {
  Graph g = TestGraph();
  VertexPartitioning parts;
  parts.k = 4;
  parts.assignment.assign(g.num_vertices(), 0);
  parts.assignment[17] = 4;  // == k
  ExpectViolation(check::ValidateVertexPartitioning(g, parts),
                  "partition/id-range");
}

TEST(ValidatePartitioningTest, RejectsInconsistentReplicaMasks) {
  Graph g = TestGraph();
  Result<EdgePartitioning> parts =
      MakeEdgePartitioner(EdgePartitionerId::kHdrf)->Partition(g, 4, 11);
  ASSERT_TRUE(parts.ok());
  std::vector<uint64_t> masks = ComputeReplicaMasks(g, *parts);
  EXPECT_TRUE(check::ValidateReplicaMasks(g, *parts, masks).ok());
  masks[3] ^= 1;
  ExpectViolation(check::ValidateReplicaMasks(g, *parts, masks),
                  "partition/replica-mask");
  masks.pop_back();
  ExpectViolation(check::ValidateReplicaMasks(g, *parts, masks),
                  "partition/replica-mask");
}

// --- bit-exact metric recomputation ---

TEST(CheckMetricsTest, AcceptsComputedEdgeMetricsAndCatchesEachField) {
  Graph g = TestGraph();
  Result<EdgePartitioning> parts =
      MakeEdgePartitioner(EdgePartitionerId::kHdrf)->Partition(g, 4, 11);
  ASSERT_TRUE(parts.ok());
  const EdgePartitionMetrics metrics = ComputeEdgePartitionMetrics(g, *parts);
  EXPECT_TRUE(check::CheckEdgeMetrics(g, *parts, metrics).ok());

  EdgePartitionMetrics m = metrics;
  m.edges_per_partition[0] += 1;
  ExpectViolation(check::CheckEdgeMetrics(g, *parts, m),
                  "metrics/edges-per-partition");
  m = metrics;
  m.vertices_per_partition[1] -= 1;
  ExpectViolation(check::CheckEdgeMetrics(g, *parts, m),
                  "metrics/vertices-per-partition");
  m = metrics;
  m.total_replicas += 1;
  ExpectViolation(check::CheckEdgeMetrics(g, *parts, m),
                  "metrics/total-replicas");
  m = metrics;
  m.replication_factor += 0.25;
  ExpectViolation(check::CheckEdgeMetrics(g, *parts, m),
                  "metrics/replication-factor");
  m = metrics;
  m.edge_balance *= 1.5;
  ExpectViolation(check::CheckEdgeMetrics(g, *parts, m),
                  "metrics/edge-balance");
  m = metrics;
  m.vertex_balance *= 1.5;
  ExpectViolation(check::CheckEdgeMetrics(g, *parts, m),
                  "metrics/vertex-balance");
}

TEST(CheckMetricsTest, AcceptsComputedVertexMetricsAndCatchesEachField) {
  Graph g = TestGraph();
  VertexSplit split = VertexSplit::MakeRandom(g.num_vertices(), 0.1, 0.1, 5);
  Result<VertexPartitioning> parts =
      MakeVertexPartitioner(VertexPartitionerId::kLdg)
          ->Partition(g, split, 4, 11);
  ASSERT_TRUE(parts.ok());
  const VertexPartitionMetrics metrics =
      ComputeVertexPartitionMetrics(g, *parts, split);
  EXPECT_TRUE(check::CheckVertexMetrics(g, *parts, split, metrics).ok());

  VertexPartitionMetrics m = metrics;
  m.cut_edges += 1;
  ExpectViolation(check::CheckVertexMetrics(g, *parts, split, m),
                  "metrics/edge-cut");
  m = metrics;
  m.edge_cut_ratio *= 1.5;
  ExpectViolation(check::CheckVertexMetrics(g, *parts, split, m),
                  "metrics/cut-ratio");
  m = metrics;
  m.train_vertices_per_partition[0] += 1;
  ExpectViolation(check::CheckVertexMetrics(g, *parts, split, m),
                  "metrics/train-vertices-per-partition");
  m = metrics;
  m.train_vertex_balance *= 1.5;
  ExpectViolation(check::CheckVertexMetrics(g, *parts, split, m),
                  "metrics/train-balance");
}

// --- sampled-block invariants ---

struct BlockFixture {
  Graph graph = TestGraph();
  std::vector<size_t> fanouts = {5, 5};
  SampledBlock block;

  BlockFixture() {
    BlockSampler sampler(graph);
    std::vector<VertexId> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    Rng rng(99);
    block = sampler.SampleBlock(seeds, fanouts, &rng);
  }
};

TEST(ValidateBlockTest, AcceptsSampledBlock) {
  BlockFixture f;
  EXPECT_TRUE(check::ValidateBlock(f.graph, f.block, f.fanouts).ok());
}

TEST(ValidateBlockTest, CatchesEachCorruption) {
  {
    BlockFixture f;
    f.block.num_seeds = f.block.vertices.size() + 1;
    ExpectViolation(check::ValidateBlock(f.graph, f.block, f.fanouts),
                    "block/seed-count");
  }
  {
    BlockFixture f;
    f.block.vertices[0] = static_cast<VertexId>(f.graph.num_vertices());
    ExpectViolation(check::ValidateBlock(f.graph, f.block, f.fanouts),
                    "block/vertex-range");
  }
  {
    BlockFixture f;
    f.block.vertices[0] = f.block.vertices[1];
    ExpectViolation(check::ValidateBlock(f.graph, f.block, f.fanouts),
                    "block/vertex-duplicate");
  }
  {
    BlockFixture f;
    f.block.local_edges.push_back(
        {0, static_cast<VertexId>(f.block.vertices.size())});
    ExpectViolation(check::ValidateBlock(f.graph, f.block, f.fanouts),
                    "block/edge-index-range");
  }
  {
    BlockFixture f;
    // Find two block vertices that are not adjacent in the graph.
    ASSERT_FALSE(f.block.local_edges.empty());
    bool planted = false;
    for (VertexId a = 0; a < f.block.vertices.size() && !planted; ++a) {
      for (VertexId b = a + 1; b < f.block.vertices.size(); ++b) {
        if (!f.graph.HasEdge(f.block.vertices[a], f.block.vertices[b])) {
          f.block.local_edges.push_back({a, b});
          planted = true;
          break;
        }
      }
    }
    ASSERT_TRUE(planted);
    ExpectViolation(check::ValidateBlock(f.graph, f.block, f.fanouts),
                    "block/phantom-edge");
  }
  {
    BlockFixture f;
    ASSERT_FALSE(f.block.local_edges.empty());
    // Duplicating a real edge past the fan-out trips the budget check
    // without introducing phantom edges.
    const Edge e = f.block.local_edges[0];
    for (size_t i = 0; i <= 5; ++i) f.block.local_edges.push_back(e);
    ExpectViolation(check::ValidateBlock(f.graph, f.block, f.fanouts),
                    "block/fanout-exceeded");
  }
}

// --- epoch-profile invariants ---

struct ProfileFixture {
  Graph graph = TestGraph();
  VertexSplit split = VertexSplit::MakeRandom(graph.num_vertices(), 0.2, 0.1,
                                              5);
  DistDglEpochProfile profile;

  ProfileFixture() {
    Result<VertexPartitioning> parts =
        MakeVertexPartitioner(VertexPartitionerId::kLdg)
            ->Partition(graph, split, 4, 11);
    EXPECT_TRUE(parts.ok());
    Result<DistDglEpochProfile> p =
        ProfileDistDglEpoch(graph, *parts, split, {5, 5}, 32, 11);
    EXPECT_TRUE(p.ok());
    profile = std::move(p).value();
  }
};

TEST(ValidateProfileTest, AcceptsSampledProfile) {
  ProfileFixture f;
  EXPECT_TRUE(check::ValidateProfile(f.profile).ok());
}

TEST(ValidateProfileTest, CatchesEachCorruption) {
  {
    ProfileFixture f;
    f.profile.profiles.pop_back();
    ExpectViolation(check::ValidateProfile(f.profile), "profile/shape");
  }
  {
    ProfileFixture f;
    f.profile.profiles[0].pop_back();
    ExpectViolation(check::ValidateProfile(f.profile), "profile/shape");
  }
  {
    ProfileFixture f;
    f.profile.profiles[0][0].local_input_vertices += 1;
    ExpectViolation(check::ValidateProfile(f.profile),
                    "profile/locality-sum");
  }
  {
    ProfileFixture f;
    MiniBatchProfile& mb = f.profile.profiles[0][0];
    mb.seeds = mb.input_vertices + 1;
    ExpectViolation(check::ValidateProfile(f.profile), "profile/seed-count");
  }
  {
    ProfileFixture f;
    MiniBatchProfile& mb = f.profile.profiles[0][0];
    mb.hop_edges.push_back(0);
    ExpectViolation(check::ValidateProfile(f.profile), "profile/hop-shape");
  }
  {
    ProfileFixture f;
    f.profile.profiles[0][0].computation_edges += 1;
    ExpectViolation(check::ValidateProfile(f.profile), "profile/edge-sum");
  }
}

// --- trace invariants ---

// A DistDGL epoch of the event log with `steps` x `workers` declared.
obs::EventLog DistDglLog(uint32_t steps, uint32_t workers) {
  obs::EventLog log;
  log.BeginEpoch("distdgl", steps, workers, 8);
  return log;
}

// An epoch with nothing recorded in it (no simulator, no spans).
TEST(ValidateTraceTest, EmptyRecorderIsValid) {
  EXPECT_TRUE(check::ValidateTrace(obs::EpochEvents{}).ok());
}

TEST(ValidateTraceTest, DeclaredEpochWithoutSpans) {
  obs::EventLog log = DistDglLog(2, 2);
  ExpectViolation(check::ValidateTrace(log.epochs().back()),
                  "trace/empty-epoch");
}

TEST(ValidateTraceTest, PhaseOutsideSimulatorSet) {
  obs::EventLog log = DistDglLog(2, 2);
  log.AddSpan(0, 0, obs::Phase::kOptimizer, 0, 1, 0, 0);  // DistGNN phase
  ExpectViolation(check::ValidateTrace(log.epochs().back()),
                  "trace/phase-set");
}

TEST(ValidateTraceTest, BarrierMisalignment) {
  obs::EventLog log = DistDglLog(1, 2);
  log.AddSpan(0, 0, obs::Phase::kSampling, 0.0, 1, 0, 0);
  log.AddSpan(0, 1, obs::Phase::kSampling, 0.5, 1, 0, 0);
  ExpectViolation(check::ValidateTrace(log.epochs().back()),
                  "trace/barrier-alignment");
}

TEST(ValidateTraceTest, NegativeBeginAndBytes) {
  {
    obs::EventLog log = DistDglLog(1, 1);
    log.AddSpan(0, 0, obs::Phase::kSampling, -1.0, 1, 0, 0);
    ExpectViolation(check::ValidateTrace(log.epochs().back()),
                    "trace/negative-begin");
  }
  {
    obs::EventLog log = DistDglLog(1, 1);
    log.AddSpan(0, 0, obs::Phase::kSampling, 0.0, 1, 0, -8);
    ExpectViolation(check::ValidateTrace(log.epochs().back()),
                    "trace/negative-bytes");
  }
}

TEST(CheckTraceTest, ReconstructionMatchesAndMismatchIsNamed) {
  ProfileFixture f;
  GnnConfig config;
  config.num_layers = 2;
  config.fanouts = {5, 5};
  ClusterSpec cluster;
  cluster.num_machines = 4;
  obs::EventLog log;
  DistDglEpochReport report =
      SimulateDistDglEpoch(f.profile, config, cluster, nullptr, nullptr, &log);
  const obs::EpochEvents& epoch = log.epochs().back();
  EXPECT_TRUE(check::CheckTraceReconstructsReport(epoch, report).ok());

  DistDglEpochReport corrupt = report;
  corrupt.sampling_seconds *= 1.5;
  ExpectViolation(check::CheckTraceReconstructsReport(epoch, corrupt),
                  "trace/report-mismatch");

  DistGnnEpochReport wrong_simulator;
  ExpectViolation(check::CheckTraceReconstructsReport(epoch, wrong_simulator),
                  "trace/simulator-mismatch");
}

// --- cache integrity (satellite: checksummed cache rejects corruption) ---

TEST(CacheChecksumTest, TruncatedAndFlippedEntriesAreRejected) {
  const std::string dir = ::testing::TempDir() + "/gnnpart_cache_test";
  PartitionCache cache(dir);
  std::vector<PartitionId> assignment(1000);
  for (size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<PartitionId>(i % 4);
  }
  ASSERT_TRUE(cache.Store("entry", 4, assignment, 1.5).ok());
  double seconds = 0;
  auto loaded = cache.Load("entry", 4, &seconds);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, assignment);
  EXPECT_EQ(seconds, 1.5);

  // Flip one payload byte on disk: the checksum must reject the entry.
  const std::string path = dir + "/entry.part";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(64);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(cache.Load("entry", 4, &seconds).ok());

  // Truncation is also detected (the trailing checksum is cut off).
  ASSERT_TRUE(cache.Store("entry", 4, assignment, 1.5).ok());
  ASSERT_TRUE(cache.Load("entry", 4, &seconds).ok());
  std::filesystem::resize_file(path, 128);
  EXPECT_FALSE(cache.Load("entry", 4, &seconds).ok());
}

TEST(CacheChecksumTest, BlobChecksumRejectsCorruption) {
  const std::string dir = ::testing::TempDir() + "/gnnpart_blob_test";
  PartitionCache cache(dir);
  std::vector<uint64_t> blob = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(cache.StoreBlob("blob", blob).ok());
  auto loaded = cache.LoadBlob("blob");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, blob);

  const std::string path = dir + "/blob.part";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(24);
    char byte = 1;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(cache.LoadBlob("blob").ok());
}

}  // namespace
}  // namespace gnnpart
