// Compares all twelve partitioners of the study on one dataset: quality
// metrics, partitioning time, and the simulated training consequence of
// each choice — a miniature of the paper's whole methodology.
//
//   ./examples/partitioner_comparison [dataset-code] [k] [scale]
#include <iostream>

#include "common/table.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "metrics/partition_metrics.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

using namespace gnnpart;

int main(int argc, char** argv) {
  std::string code = argc > 1 ? argv[1] : "EU";
  PartitionId k = argc > 2 ? static_cast<PartitionId>(atoi(argv[2])) : 8;
  double scale = argc > 3 ? atof(argv[3]) : 0.25;

  Result<DatasetId> dataset = ParseDatasetCode(code);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  Result<Graph> graph = MakeDataset(*dataset, scale, 42);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  VertexSplit split =
      VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, 42);
  GnnConfig config;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(k);

  std::cout << "Dataset " << code << " at scale " << scale << ": |V|="
            << graph->num_vertices() << " |E|=" << graph->num_edges()
            << ", k=" << k << "\n";

  std::cout << "\nEdge partitioners (vertex-cut; full-batch training as in "
               "DistGNN)\n";
  TablePrinter edge_table({"Partitioner", "Category", "RF", "EB", "VB",
                           "part s", "epoch ms", "net MB", "peak mem MB"});
  double random_epoch = 0;
  for (EdgePartitionerId id : AllEdgePartitioners()) {
    auto partitioner = MakeEdgePartitioner(id);
    WallTimer timer;
    Result<EdgePartitioning> parts = partitioner->Partition(*graph, k, 42);
    if (!parts.ok()) {
      std::cerr << parts.status() << "\n";
      return 1;
    }
    double seconds = timer.ElapsedSeconds();
    EdgePartitionMetrics m = ComputeEdgePartitionMetrics(*graph, *parts);
    DistGnnEpochReport r = SimulateDistGnnEpoch(
        BuildDistGnnWorkload(*graph, m), config, cluster);
    if (partitioner->name() == "Random") random_epoch = r.epoch_seconds;
    edge_table.AddRow(
        {partitioner->name(), partitioner->category(),
         TablePrinter::Fmt(m.replication_factor),
         TablePrinter::Fmt(m.edge_balance), TablePrinter::Fmt(m.vertex_balance),
         TablePrinter::Fmt(seconds, 3),
         TablePrinter::Fmt(r.epoch_seconds * 1e3, 1),
         TablePrinter::Fmt(r.total_network_bytes / 1e6, 1),
         TablePrinter::Fmt(r.max_memory_bytes / 1e6, 1)});
  }
  edge_table.Print(std::cout);
  std::cout << "(Random full-batch epoch = "
            << TablePrinter::Fmt(random_epoch * 1e3, 1) << " ms)\n";

  std::cout << "\nVertex partitioners (edge-cut; mini-batch training as in "
               "DistDGL)\n";
  TablePrinter vertex_table({"Partitioner", "Category", "cut", "VB", "TVB",
                             "part s", "epoch ms", "remote vertices"});
  for (VertexPartitionerId id : AllVertexPartitioners()) {
    auto partitioner = MakeVertexPartitioner(id);
    WallTimer timer;
    Result<VertexPartitioning> parts =
        partitioner->Partition(*graph, split, k, 42);
    if (!parts.ok()) {
      std::cerr << parts.status() << "\n";
      return 1;
    }
    double seconds = timer.ElapsedSeconds();
    VertexPartitionMetrics m =
        ComputeVertexPartitionMetrics(*graph, *parts, split);
    Result<DistDglEpochProfile> profile = ProfileDistDglEpoch(
        *graph, *parts, split, config.fanouts, 256, 42);
    if (!profile.ok()) {
      std::cerr << profile.status() << "\n";
      return 1;
    }
    DistDglEpochReport r = SimulateDistDglEpoch(*profile, config, cluster);
    vertex_table.AddRow(
        {partitioner->name(), partitioner->category(),
         TablePrinter::Fmt(m.edge_cut_ratio, 3),
         TablePrinter::Fmt(m.vertex_balance),
         TablePrinter::Fmt(m.train_vertex_balance),
         TablePrinter::Fmt(seconds, 3),
         TablePrinter::Fmt(r.epoch_seconds * 1e3, 1),
         std::to_string(r.remote_input_vertices)});
  }
  vertex_table.Print(std::cout);
  return 0;
}
