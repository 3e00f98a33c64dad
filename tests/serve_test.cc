// gnnpart::serve — open-loop request generation, per-partition batching,
// the request lifecycle engine and the weighted fabric it shares with a
// co-tenant trainer (DESIGN.md §15). The load-bearing claims: the request
// trace and the whole serving report are byte-identical for every
// --threads value; the batcher honours its two dispatch triggers exactly
// at the wait=0 and batch=1 boundaries; weighted flows conserve bytes on
// the shared fabric and a heavier serve weight never hurts the serving
// tail; the uncontended timetable is priced at the fabric's NIC; and
// every serve/* validator trips by name on fabricated corruption.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/validators.h"
#include "common/parallel.h"
#include "gen/generators.h"
#include "graph/split.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "obs/events.h"
#include "partition/edge/registry.h"
#include "serve/batcher.h"
#include "serve/serve.h"
#include "serve/workload.h"
#include "sim/cluster.h"

namespace gnnpart {
namespace {

Graph ServeGraph() {
  RmatParams p;
  p.num_vertices = 1200;
  p.num_edges = 9000;
  Result<Graph> g = GenerateRmat(p, 31);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

VertexPartitioning Owners(const Graph& g, PartitionId k) {
  std::unique_ptr<EdgePartitioner> p =
      MakeEdgePartitioner(EdgePartitionerId::kHdrf);
  Result<EdgePartitioning> parts = p->Partition(g, k, 42);
  EXPECT_TRUE(parts.ok());
  return serve::DeriveVertexOwnership(g, *parts);
}

serve::ServeConfig BaseConfig(PartitionId k) {
  serve::ServeConfig config;
  config.workload.arrival_rate = 600.0;
  config.workload.duration = 0.25;
  config.workload.seed = 11;
  config.batch.max_batch = 4;
  config.batch.max_wait = 0.002;
  config.gnn.arch = GnnArchitecture::kGraphSage;
  config.gnn.num_layers = 2;
  config.gnn.feature_size = 32;
  config.gnn.hidden_dim = 16;
  config.gnn.num_classes = 8;
  config.gnn.fanouts = GnnConfig::DefaultFanouts(2);
  config.gnn.global_batch_size = 64;
  config.cluster.num_machines = k;
  config.network = net::NetworkConfig::FromCluster(config.cluster);
  config.seed = 13;
  return config;
}

TEST(ServeWorkloadTest, RequestTraceByteIdenticalAcrossThreadsAndRuns) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::RequestGenConfig config;
  config.arrival_rate = 900.0;
  config.duration = 0.5;
  config.seed = 7;
  std::string reference;
  for (int threads : {1, 2, 8, 1}) {
    SetDefaultThreads(threads);
    const std::vector<serve::ServeRequest> requests =
        serve::GenerateRequests(config, owners);
    EXPECT_TRUE(check::ValidateServeRequests(requests, config, owners).ok());
    const std::string trace = serve::FormatRequestTrace(requests);
    if (reference.empty()) {
      reference = trace;
      continue;
    }
    EXPECT_EQ(trace, reference) << "threads=" << threads;
  }
  SetDefaultThreads(1);
}

TEST(ServeWorkloadTest, RequestsRespectWindowOrderAndOwnership) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::RequestGenConfig config;
  config.arrival_rate = 400.0;
  config.duration = 0.3;
  config.seed = 3;
  const std::vector<serve::ServeRequest> requests =
      serve::GenerateRequests(config, owners);
  ASSERT_FALSE(requests.empty());
  double prev = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const serve::ServeRequest& r = requests[i];
    EXPECT_EQ(r.id, i);
    EXPECT_GE(r.arrival, prev);
    EXPECT_LT(r.arrival, config.duration);
    ASSERT_LT(static_cast<size_t>(r.ego), owners.assignment.size());
    EXPECT_EQ(r.home, owners.assignment[r.ego]);
    prev = r.arrival;
  }
}

TEST(ServeBatcherTest, WaitZeroDispatchesAtTheArrivalInstant) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::RequestGenConfig wl;
  wl.arrival_rate = 800.0;
  wl.duration = 0.2;
  wl.seed = 5;
  const std::vector<serve::ServeRequest> requests =
      serve::GenerateRequests(wl, owners);
  serve::BatchConfig config;
  config.max_batch = 8;
  config.max_wait = 0.0;
  const std::vector<serve::ServeBatch> batches =
      serve::BatchRequests(requests, 4, config);
  EXPECT_TRUE(check::ValidateServeBatches(requests, batches, 4, config).ok());
  // With no wait budget a queue never outlives its arrival instant: every
  // batch dispatches at the (shared) arrival of its members.
  for (const serve::ServeBatch& batch : batches) {
    for (uint32_t m : batch.members) {
      EXPECT_EQ(batch.dispatch, requests[m].arrival);
    }
  }
}

TEST(ServeBatcherTest, BatchOneServesEveryRequestAlone) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::RequestGenConfig wl;
  wl.arrival_rate = 800.0;
  wl.duration = 0.2;
  wl.seed = 5;
  const std::vector<serve::ServeRequest> requests =
      serve::GenerateRequests(wl, owners);
  serve::BatchConfig config;
  config.max_batch = 1;
  config.max_wait = 0.010;
  const std::vector<serve::ServeBatch> batches =
      serve::BatchRequests(requests, 4, config);
  EXPECT_TRUE(check::ValidateServeBatches(requests, batches, 4, config).ok());
  ASSERT_EQ(batches.size(), requests.size());
  // Size-1 batches fill on arrival, so the wait timer never fires.
  for (const serve::ServeBatch& batch : batches) {
    ASSERT_EQ(batch.members.size(), 1u);
    EXPECT_EQ(batch.dispatch, requests[batch.members[0]].arrival);
  }
}

TEST(ServeFabricTest, WeightedFlowsConserveBytesOnSharedLinks) {
  net::NetworkConfig config;
  config.topology = net::TopologyKind::kRing;
  config.nic_bandwidth = 1e6;
  config.link_latency = 1e-5;
  net::Fabric fabric(config, 4);
  std::vector<net::Flow> flows;
  net::LinkUsage usage;
  usage.EnsureShape(fabric);
  double offered = 0;
  // Serving flows at weight 4 against co-tenant bulk at weight 1, all
  // overlapping in time so every shared link is contended.
  for (int host = 0; host < 4; ++host) {
    const double serve_bytes = 3e5 + 1e4 * host;
    const double bulk_bytes = 8e5 + 2e4 * host;
    offered += serve_bytes + bulk_bytes;
    net::AppendHostFlows(fabric, host, 0.0, serve_bytes, 1.0, 4.0, &flows);
    net::AppendHostFlows(fabric, host, 0.0, bulk_bytes, 2.0, 1.0, &flows);
    usage.host_offered_bytes[host] += serve_bytes + bulk_bytes;
  }
  const std::vector<double> finish =
      net::SimulateFlows(fabric, flows, &usage, nullptr);
  ASSERT_EQ(finish.size(), flows.size());
  EXPECT_TRUE(check::ValidateFlowConservation(fabric, usage).ok());
  double egress = 0;
  for (double b : usage.host_egress_bytes) egress += b;
  EXPECT_NEAR(egress, offered, 1e-6 * offered);
}

TEST(ServeRunTest, ReportByteIdenticalAcrossThreads) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::ServeConfig config = BaseConfig(4);
  config.cotenant = true;
  serve::ServeReport reference;
  bool have_reference = false;
  for (int threads : {1, 2, 8}) {
    SetDefaultThreads(threads);
    Result<serve::ServeReport> report =
        serve::RunServe(g, owners, config, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (!have_reference) {
      reference = *report;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(report->latencies, reference.latencies)
        << "threads=" << threads;
    EXPECT_EQ(report->latency.p99, reference.latency.p99);
    EXPECT_EQ(report->queue_seconds, reference.queue_seconds);
    EXPECT_EQ(report->congestion_seconds, reference.congestion_seconds);
    EXPECT_EQ(report->network_bytes, reference.network_bytes);
    EXPECT_EQ(report->cotenant_steps, reference.cotenant_steps);
  }
  SetDefaultThreads(1);
}

TEST(ServeRunTest, HeavierServeWeightNeverHurtsTheTailUnderCotenancy) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::ServeConfig config = BaseConfig(4);
  config.cotenant = true;
  config.serve_weight = 1.0;
  Result<serve::ServeReport> fair = serve::RunServe(g, owners, config, nullptr);
  ASSERT_TRUE(fair.ok());
  config.serve_weight = 8.0;
  Result<serve::ServeReport> heavy =
      serve::RunServe(g, owners, config, nullptr);
  ASSERT_TRUE(heavy.ok());
  ASSERT_EQ(heavy->latencies.size(), fair->latencies.size());
  EXPECT_LE(heavy->latency.p99, fair->latency.p99);
  EXPECT_LE(heavy->congestion_seconds, fair->congestion_seconds);
  // Preemption reshuffles bandwidth, never bytes.
  EXPECT_EQ(heavy->network_bytes, fair->network_bytes);
}

TEST(ServeRunTest, TimetableIsPricedAtTheFabricsNic) {
  // The uncontended timetable and the co-tenant replay's barriers read the
  // fabric's NIC bandwidth, so a 10x faster NIC shortens the serving
  // network time and fits more training steps into the window.
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  for (bool cotenant : {false, true}) {
    serve::ServeConfig config = BaseConfig(4);
    config.cotenant = cotenant;
    config.network.nic_bandwidth = 1.25e8;
    Result<serve::ServeReport> slow =
        serve::RunServe(g, owners, config, nullptr);
    config.network.nic_bandwidth = 1.25e9;
    Result<serve::ServeReport> fast =
        serve::RunServe(g, owners, config, nullptr);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    if (cotenant) {
      EXPECT_GT(fast->cotenant_steps, slow->cotenant_steps);
    } else {
      EXPECT_LT(fast->network_seconds, slow->network_seconds);
    }
  }
}

TEST(ServeRunTest, EventLogValidatesAndAttributionCrossChecks) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::ServeConfig config = BaseConfig(4);
  config.cotenant = true;
  obs::EventLog events;
  Result<serve::ServeReport> report =
      serve::RunServe(g, owners, config, &events);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(events.epochs().size(), 1u);
  EXPECT_EQ(events.epochs()[0].sim, "serve");
  EXPECT_TRUE(check::ValidateEventLog(events).ok());
  EXPECT_TRUE(check::CheckEventAttribution(events).ok());
}

TEST(ServeRunTest, RejectsNonFiniteRateOrDuration) {
  // inf would reach the request-chunk count as an out-of-range cast;
  // RunServe must refuse before generating anything.
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [rate, duration] :
       std::vector<std::pair<double, double>>{{inf, 0.25}, {600.0, inf}}) {
    serve::ServeConfig config = BaseConfig(4);
    config.workload.arrival_rate = rate;
    config.workload.duration = duration;
    Result<serve::ServeReport> report =
        serve::RunServe(g, owners, config, nullptr);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.status().message().find("finite"), std::string::npos)
        << report.status().ToString();
  }
}

TEST(ServeRunTest, RejectsRequestCountBeyondBatchIndexSpace) {
  // ServeBatch::members holds uint32_t request indices; an expected
  // 2^32 requests (here 2^22/s over 2^10 s) is refused up front.
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::ServeConfig config = BaseConfig(4);
  config.workload.arrival_rate = 0x1p22;
  config.workload.duration = 0x1p10;
  Result<serve::ServeReport> report =
      serve::RunServe(g, owners, config, nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("rate x duration"),
            std::string::npos)
      << report.status().ToString();
}

TEST(ServeValidatorTest, RequestOrderTripsByName) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::RequestGenConfig config;
  config.arrival_rate = 500.0;
  config.duration = 0.2;
  config.seed = 9;
  const std::vector<serve::ServeRequest> requests =
      serve::GenerateRequests(config, owners);
  ASSERT_GE(requests.size(), 3u);

  std::vector<serve::ServeRequest> swapped = requests;
  std::swap(swapped[0].arrival, swapped[1].arrival);
  swapped[0].arrival += 1e-3;  // force a strict inversion
  Status st = check::ValidateServeRequests(swapped, config, owners);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/request-order"), std::string::npos);

  std::vector<serve::ServeRequest> rehomed = requests;
  rehomed[2].home = (rehomed[2].home + 1) % 4;
  st = check::ValidateServeRequests(rehomed, config, owners);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/request-order"), std::string::npos);

  std::vector<serve::ServeRequest> late = requests;
  late.back().arrival = config.duration;
  st = check::ValidateServeRequests(late, config, owners);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/request-order"), std::string::npos);
}

TEST(ServeValidatorTest, BatchShapeTripsByName) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::RequestGenConfig wl;
  wl.arrival_rate = 500.0;
  wl.duration = 0.2;
  wl.seed = 9;
  const std::vector<serve::ServeRequest> requests =
      serve::GenerateRequests(wl, owners);
  serve::BatchConfig config;
  const std::vector<serve::ServeBatch> batches =
      serve::BatchRequests(requests, 4, config);
  ASSERT_GE(batches.size(), 2u);

  std::vector<serve::ServeBatch> duplicated = batches;
  duplicated[1].members = duplicated[0].members;
  duplicated[1].part = duplicated[0].part;
  Status st =
      check::ValidateServeBatches(requests, duplicated, 4, config);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/batch-shape"), std::string::npos);

  std::vector<serve::ServeBatch> early = batches;
  early[0].dispatch = requests[early[0].members.back()].arrival - 1e-6;
  st = check::ValidateServeBatches(requests, early, 4, config);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/batch-shape"), std::string::npos);

  std::vector<serve::ServeBatch> mislabeled = batches;
  mislabeled[0].part = (mislabeled[0].part + 1) % 4;
  st = check::ValidateServeBatches(requests, mislabeled, 4, config);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/batch-shape"), std::string::npos);
}

TEST(ServeValidatorTest, LatencyAccountingTripsByName) {
  Graph g = ServeGraph();
  const VertexPartitioning owners = Owners(g, 4);
  serve::ServeConfig config = BaseConfig(4);
  const std::vector<serve::ServeRequest> requests =
      serve::GenerateRequests(config.workload, owners);
  const std::vector<serve::ServeBatch> batches =
      serve::BatchRequests(requests, 4, config.batch);
  Result<serve::ServeReport> run = serve::RunServe(g, owners, config, nullptr);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(check::ValidateServeReport(requests, batches, *run).ok());

  serve::ServeReport shifted = *run;
  ASSERT_FALSE(shifted.latencies.empty());
  shifted.latencies[0] += 1e-3;
  Status st = check::ValidateServeReport(requests, batches, shifted);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/latency-accounting"), std::string::npos);

  serve::ServeReport misquantiled = *run;
  misquantiled.latency.p99 *= 1.5;
  st = check::ValidateServeReport(requests, batches, misquantiled);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/latency-accounting"), std::string::npos);

  serve::ServeReport requeued = *run;
  requeued.queue_seconds += 1e-6;
  st = check::ValidateServeReport(requests, batches, requeued);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("serve/latency-accounting"), std::string::npos);
}

}  // namespace
}  // namespace gnnpart
