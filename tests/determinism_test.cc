// End-to-end determinism of the parallel layer: metrics, samplers,
// partitioners and simulators must produce byte-identical results whether
// the default pool has 1, 2 or 8 threads. This is the contract that makes
// the reproduction's fixed-seed figures stable across machines (see
// DESIGN.md "Threading model & determinism").
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "gen/datasets.h"
#include "graph/split.h"
#include "metrics/partition_metrics.h"
#include "obs/events.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "sampling/block_sampler.h"
#include "sampling/neighbor_sampler.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"
#include "trace/export.h"

namespace gnnpart {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr uint64_t kSeed = 42;
constexpr PartitionId kParts = 8;

class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A fixed-seed R-MAT-style power-law graph (the Orkut stand-in).
    Result<Graph> g = MakeDataset(DatasetId::kOrkut, 0.05, kSeed);
    ASSERT_TRUE(g.ok()) << g.status();
    graph_ = new Graph(std::move(g).value());
    split_ = new VertexSplit(
        VertexSplit::MakeRandom(graph_->num_vertices(), 0.1, 0.1, kSeed));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete split_;
    graph_ = nullptr;
    split_ = nullptr;
    SetDefaultThreads(1);
  }

  // Runs `fn` once per thread count and checks every result equals the
  // single-threaded one with `eq`.
  template <typename Fn, typename Eq>
  static void ExpectInvariant(const Fn& fn, const Eq& eq) {
    SetDefaultThreads(1);
    auto reference = fn();
    for (int threads : kThreadCounts) {
      SetDefaultThreads(threads);
      auto probe = fn();
      eq(reference, probe, threads);
    }
    SetDefaultThreads(1);
  }

  static Graph* graph_;
  static VertexSplit* split_;
};

Graph* DeterminismTest::graph_ = nullptr;
VertexSplit* DeterminismTest::split_ = nullptr;

TEST_F(DeterminismTest, HashEdgePartitionersBitIdentical) {
  for (EdgePartitionerId id :
       {EdgePartitionerId::kRandom, EdgePartitionerId::kDbh,
        EdgePartitionerId::kGrid}) {
    ExpectInvariant(
        [&] {
          auto parts = MakeEdgePartitioner(id)->Partition(*graph_, kParts,
                                                          kSeed);
          EXPECT_TRUE(parts.ok());
          return std::move(parts).value().assignment;
        },
        [&](const std::vector<PartitionId>& ref,
            const std::vector<PartitionId>& probe, int threads) {
          EXPECT_EQ(ref, probe)
              << "partitioner " << static_cast<int>(id) << " at " << threads
              << " threads";
        });
  }
}

TEST_F(DeterminismTest, RandomVertexPartitionerBitIdentical) {
  ExpectInvariant(
      [&] {
        auto parts = MakeVertexPartitioner(VertexPartitionerId::kRandom)
                         ->Partition(*graph_, *split_, kParts, kSeed);
        EXPECT_TRUE(parts.ok());
        return std::move(parts).value().assignment;
      },
      [](const std::vector<PartitionId>& ref,
         const std::vector<PartitionId>& probe, int threads) {
        EXPECT_EQ(ref, probe) << "at " << threads << " threads";
      });
}

TEST_F(DeterminismTest, EdgeMetricsBitIdentical) {
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kHdrf)
                   ->Partition(*graph_, kParts, kSeed);
  ASSERT_TRUE(parts.ok());
  ExpectInvariant(
      [&] { return ComputeEdgePartitionMetrics(*graph_, *parts); },
      [](const EdgePartitionMetrics& ref, const EdgePartitionMetrics& probe,
         int threads) {
        EXPECT_EQ(ref.replication_factor, probe.replication_factor)
            << "at " << threads << " threads";
        EXPECT_EQ(ref.edge_balance, probe.edge_balance);
        EXPECT_EQ(ref.vertex_balance, probe.vertex_balance);
        EXPECT_EQ(ref.total_replicas, probe.total_replicas);
        EXPECT_EQ(ref.vertices_per_partition, probe.vertices_per_partition);
        EXPECT_EQ(ref.edges_per_partition, probe.edges_per_partition);
      });
}

TEST_F(DeterminismTest, VertexMetricsBitIdentical) {
  auto parts = MakeVertexPartitioner(VertexPartitionerId::kLdg)
                   ->Partition(*graph_, *split_, kParts, kSeed);
  ASSERT_TRUE(parts.ok());
  ExpectInvariant(
      [&] { return ComputeVertexPartitionMetrics(*graph_, *parts, *split_); },
      [](const VertexPartitionMetrics& ref,
         const VertexPartitionMetrics& probe, int threads) {
        EXPECT_EQ(ref.edge_cut_ratio, probe.edge_cut_ratio)
            << "at " << threads << " threads";
        EXPECT_EQ(ref.cut_edges, probe.cut_edges);
        EXPECT_EQ(ref.vertex_balance, probe.vertex_balance);
        EXPECT_EQ(ref.train_vertex_balance, probe.train_vertex_balance);
      });
}

TEST_F(DeterminismTest, NeighborSamplerBitIdentical) {
  auto parts = MakeVertexPartitioner(VertexPartitionerId::kRandom)
                   ->Partition(*graph_, *split_, kParts, kSeed);
  ASSERT_TRUE(parts.ok());
  std::vector<VertexId> seeds(split_->train_vertices().begin(),
                              split_->train_vertices().begin() + 64);
  ExpectInvariant(
      [&] {
        NeighborSampler sampler(*graph_);
        Rng rng(kSeed);
        return sampler.SampleBatch(seeds, {15, 10, 5}, &parts.value(),
                                   /*owner=*/0, &rng);
      },
      [](const MiniBatchProfile& ref, const MiniBatchProfile& probe,
         int threads) {
        EXPECT_EQ(ref.input_vertices, probe.input_vertices)
            << "at " << threads << " threads";
        EXPECT_EQ(ref.local_input_vertices, probe.local_input_vertices);
        EXPECT_EQ(ref.remote_input_vertices, probe.remote_input_vertices);
        EXPECT_EQ(ref.computation_edges, probe.computation_edges);
        EXPECT_EQ(ref.remote_sampling_requests,
                  probe.remote_sampling_requests);
        EXPECT_EQ(ref.frontier_sizes, probe.frontier_sizes);
        EXPECT_EQ(ref.hop_edges, probe.hop_edges);
      });
}

TEST_F(DeterminismTest, BlockSamplerBitIdentical) {
  std::vector<VertexId> seeds(split_->train_vertices().begin(),
                              split_->train_vertices().begin() + 64);
  ExpectInvariant(
      [&] {
        BlockSampler sampler(*graph_);
        Rng rng(kSeed);
        return sampler.SampleBlock(seeds, {10, 10}, &rng);
      },
      [](const SampledBlock& ref, const SampledBlock& probe, int threads) {
        EXPECT_EQ(ref.vertices, probe.vertices)
            << "at " << threads << " threads";
        EXPECT_EQ(ref.num_seeds, probe.num_seeds);
        ASSERT_EQ(ref.local_edges.size(), probe.local_edges.size());
        for (size_t i = 0; i < ref.local_edges.size(); ++i) {
          EXPECT_EQ(ref.local_edges[i].src, probe.local_edges[i].src);
          EXPECT_EQ(ref.local_edges[i].dst, probe.local_edges[i].dst);
        }
      });
}

TEST_F(DeterminismTest, DistGnnPipelineBitIdentical) {
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kHdrf)
                   ->Partition(*graph_, kParts, kSeed);
  ASSERT_TRUE(parts.ok());
  GnnConfig config;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(kParts);
  ExpectInvariant(
      [&] {
        DistGnnWorkload workload = BuildDistGnnWorkload(*graph_, *parts);
        return SimulateDistGnnEpoch(workload, config, cluster);
      },
      [](const DistGnnEpochReport& ref, const DistGnnEpochReport& probe,
         int threads) {
        EXPECT_EQ(ref.epoch_seconds, probe.epoch_seconds)
            << "at " << threads << " threads";
        EXPECT_EQ(ref.forward_seconds, probe.forward_seconds);
        EXPECT_EQ(ref.backward_seconds, probe.backward_seconds);
        EXPECT_EQ(ref.max_memory_bytes, probe.max_memory_bytes);
        EXPECT_EQ(ref.total_network_bytes, probe.total_network_bytes);
      });
}

TEST_F(DeterminismTest, DistDglPipelineBitIdentical) {
  auto parts = MakeVertexPartitioner(VertexPartitionerId::kMetis)
                   ->Partition(*graph_, *split_, kParts, kSeed);
  ASSERT_TRUE(parts.ok());
  GnnConfig config;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(kParts);
  ExpectInvariant(
      [&] {
        auto profile = ProfileDistDglEpoch(*graph_, *parts, *split_,
                                           config.fanouts,
                                           /*global_batch_size=*/256, kSeed);
        EXPECT_TRUE(profile.ok());
        return SimulateDistDglEpoch(*profile, config, cluster);
      },
      [](const DistDglEpochReport& ref, const DistDglEpochReport& probe,
         int threads) {
        EXPECT_EQ(ref.epoch_seconds, probe.epoch_seconds)
            << "at " << threads << " threads";
        EXPECT_EQ(ref.sampling_seconds, probe.sampling_seconds);
        EXPECT_EQ(ref.feature_seconds, probe.feature_seconds);
        EXPECT_EQ(ref.forward_seconds, probe.forward_seconds);
        EXPECT_EQ(ref.backward_seconds, probe.backward_seconds);
        EXPECT_EQ(ref.remote_input_vertices, probe.remote_input_vertices);
        EXPECT_EQ(ref.total_network_bytes, probe.total_network_bytes);
        EXPECT_EQ(ref.time_balance, probe.time_balance);
        ASSERT_EQ(ref.workers.size(), probe.workers.size());
        for (size_t w = 0; w < ref.workers.size(); ++w) {
          EXPECT_EQ(ref.workers[w].sampling_seconds,
                    probe.workers[w].sampling_seconds);
          EXPECT_EQ(ref.workers[w].network_bytes,
                    probe.workers[w].network_bytes);
        }
      });
}

// The exported trace is part of the deterministic surface: the Chrome
// trace JSON written by --trace-out — spans and network flows, both read
// from the event log — must be byte-identical for every thread count (the
// records are computed in the parallel loops but emitted by a canonical
// serial replay).
TEST_F(DeterminismTest, DistGnnTraceBytesIdentical) {
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kHdrf)
                   ->Partition(*graph_, kParts, kSeed);
  ASSERT_TRUE(parts.ok());
  GnnConfig config;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(kParts);
  ExpectInvariant(
      [&] {
        DistGnnWorkload workload = BuildDistGnnWorkload(*graph_, *parts);
        obs::EventLog log;
        SimulateDistGnnEpoch(workload, config, cluster, nullptr, nullptr,
                             &log);
        return trace::ChromeTraceJson(log.epochs().back());
      },
      [](const std::string& ref, const std::string& probe, int threads) {
        EXPECT_EQ(ref, probe) << "at " << threads << " threads";
      });
}

TEST_F(DeterminismTest, DistDglTraceBytesIdentical) {
  auto parts = MakeVertexPartitioner(VertexPartitionerId::kMetis)
                   ->Partition(*graph_, *split_, kParts, kSeed);
  ASSERT_TRUE(parts.ok());
  GnnConfig config;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(kParts);
  ExpectInvariant(
      [&] {
        auto profile = ProfileDistDglEpoch(*graph_, *parts, *split_,
                                           config.fanouts,
                                           /*global_batch_size=*/256, kSeed);
        EXPECT_TRUE(profile.ok());
        obs::EventLog log;
        SimulateDistDglEpoch(*profile, config, cluster, nullptr, nullptr,
                             &log);
        return trace::ChromeTraceJson(log.epochs().back());
      },
      [](const std::string& ref, const std::string& probe, int threads) {
        EXPECT_EQ(ref, probe) << "at " << threads << " threads";
      });
}

}  // namespace
}  // namespace gnnpart
