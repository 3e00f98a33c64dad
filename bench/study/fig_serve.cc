// fig-serve: tail-latency re-ranking of the study's 12 partitioners under
// multi-tenant inference serving (EXPERIMENTS.md "fig-serve", DESIGN.md
// §15). Each partitioner — the six vertex-cuts served through
// DeriveVertexOwnership plus the six edge-cuts served natively — handles
// the same open-loop request stream at a low and a high arrival rate on
// all three fabric topologies, and is ranked by p99 latency within each
// (topology, load) cell. Training figures rank by epoch time, where only
// aggregate traffic matters; serving ranks by the tail, where one
// congested link or one hot partition queue dominates, so the ordering is
// allowed to — and does — come out different.
#include "bench/study/tables.h"

#include <algorithm>
#include <memory>

#include "net/topology.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "serve/serve.h"
#include "serve/workload.h"

namespace gnnpart::bench {

namespace {

struct Load {
  const char* label;
  double arrival_rate;  // requests/s across the whole service
};

struct Candidate {
  std::string display;
  bool vertex_mode = false;  // true: native edge-cut (DistDGL footing)
  VertexPartitioning owners;
};

struct Row {
  const Candidate* candidate = nullptr;
  const char* topology = "";
  const char* load = "";
  serve::ServeReport report;
};

}  // namespace

void FigServe(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner(
      "Serving tail latency: p99 re-ranking of all 12 partitioners",
      "EXPERIMENTS.md fig-serve (ROADMAP: inference serving)", ctx);

  constexpr PartitionId kWorkers = 8;
  const DatasetId dataset = DatasetId::kEnwiki;
  const DatasetBundle& bundle =
      *bench::Unwrap(study.Dataset(dataset), "dataset");
  const Graph& graph = bundle.graph;
  ClusterSpec cluster = ctx.MakeCluster(kWorkers);

  // Partition once per candidate; the fabric and the load sweep reuse the
  // same ownership so ranking differences are purely serving-side.
  std::vector<Candidate> candidates;
  for (EdgePartitionerId id : AllEdgePartitioners()) {
    std::unique_ptr<EdgePartitioner> p = MakeEdgePartitioner(id);
    Candidate c;
    c.display = p->name();
    c.vertex_mode = false;
    EdgePartitioning parts = bench::Unwrap(
        p->Partition(graph, kWorkers, ctx.seed), "edge partition");
    c.owners = serve::DeriveVertexOwnership(graph, parts);
    candidates.push_back(std::move(c));
  }
  const VertexSplit& split = bundle.split;
  for (VertexPartitionerId id : AllVertexPartitioners()) {
    std::unique_ptr<VertexPartitioner> p = MakeVertexPartitioner(id);
    Candidate c;
    c.display = "v" + p->name();
    c.vertex_mode = true;
    c.owners = bench::Unwrap(p->Partition(graph, split, kWorkers, ctx.seed),
                             "vertex partition");
    candidates.push_back(std::move(c));
  }

  const std::vector<net::TopologyKind> topologies = {
      net::TopologyKind::kFullBisection, net::TopologyKind::kFatTree,
      net::TopologyKind::kRing};
  // Low load: batches mostly ride the wait timer, flows rarely overlap.
  // High load: full batches back-to-back, so tail latency is made by
  // queueing and link contention rather than by the uncontended path.
  const std::vector<Load> loads = {{"low", 400.0}, {"high", 6000.0}};

  std::vector<Row> rows;
  for (net::TopologyKind topology : topologies) {
    for (const Load& load : loads) {
      for (const Candidate& candidate : candidates) {
        serve::ServeConfig config;
        config.workload.arrival_rate = load.arrival_rate;
        config.workload.duration = 0.5;
        config.workload.seed = ctx.seed;
        config.batch.max_batch = 8;
        config.batch.max_wait = 0.002;
        config.serve_weight = 4.0;
        config.cotenant = false;
        config.gnn.arch = GnnArchitecture::kGraphSage;
        config.gnn.num_layers = 3;
        config.gnn.feature_size = 256;
        config.gnn.hidden_dim = 64;
        config.gnn.num_classes = 16;
        config.gnn.fanouts = GnnConfig::DefaultFanouts(3);
        config.gnn.global_batch_size = ctx.global_batch_size;
        config.cluster = cluster;
        config.network = net::NetworkConfig::FromCluster(cluster);
        config.network.topology = topology;
        if (topology == net::TopologyKind::kFatTree) {
          config.network.oversubscription = 4.0;
        }
        config.seed = ctx.seed;
        config.metrics_prefix = std::string("bench/fig_serve/") +
                                net::TopologyName(topology) + "/" +
                                load.label + "/" + candidate.display;
        Row row;
        row.candidate = &candidate;
        row.topology = net::TopologyName(topology);
        row.load = load.label;
        row.report = bench::Unwrap(
            serve::RunServe(graph, candidate.owners, config, nullptr),
            "serve run");
        rows.push_back(std::move(row));
      }
      // Rank this (topology, load) cell by p99; stable so latency ties
      // keep partitioner registry order.
      const size_t begin = rows.size() - candidates.size();
      std::stable_sort(rows.begin() + begin, rows.end(),
                       [](const Row& a, const Row& b) {
                         return a.report.latency.p99 < b.report.latency.p99;
                       });
    }
  }

  TablePrinter table({"Topology", "Load", "Rank", "Partitioner", "System",
                      "p50 ms", "p95 ms", "p99 ms", "Queue ms", "Congest ms",
                      "Net MB"});
  size_t rank = 0;
  const char* cell_topology = "";
  const char* cell_load = "";
  for (const Row& row : rows) {
    if (row.topology != cell_topology || row.load != cell_load) {
      cell_topology = row.topology;
      cell_load = row.load;
      rank = 0;
    }
    ++rank;
    table.AddRow({row.topology, row.load, std::to_string(rank),
                  row.candidate->display,
                  row.candidate->vertex_mode ? "DistDGL" : "DistGNN",
                  bench::F(row.report.latency.p50 * 1e3, 3),
                  bench::F(row.report.latency.p95 * 1e3, 3),
                  bench::F(row.report.latency.p99 * 1e3, 3),
                  bench::F(row.report.queue_seconds * 1e3, 2),
                  bench::F(row.report.congestion_seconds * 1e3, 2),
                  bench::F(row.report.network_bytes / 1e6, 2)});
  }
  bench::Emit(table, "fig_serve");
}

}  // namespace gnnpart::bench
