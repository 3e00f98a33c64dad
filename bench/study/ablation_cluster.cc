// Ablation (DESIGN.md, starred): the simulated cluster's network bandwidth
// decides which regime the workload is in. On a slow interconnect DistGNN
// is communication-bound and partitioning pays off like in the paper
// (speedups track the replication factor); on a fast one the epoch is
// compute-bound and every speedup compresses toward the covered-vertex
// ratio. This sweep makes the default (1 GbE) an explicit, reproducible
// choice rather than a hidden constant.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void AblationCluster(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Ablation: network bandwidth vs partitioner payoff "
                     "(HW, 16 machines, feat=hidden=64, 3 layers)",
                     "DESIGN.md cluster-regime decision", ctx);
  GnnConfig config;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  const PartitionId k = 16;

  std::map<std::string, const DistGnnWorkload*> workloads;
  for (EdgePartitionerId pid : AllEdgePartitioners()) {
    workloads[MakeEdgePartitioner(pid)->name()] =
        &bench::Unwrap(study.Edge(DatasetId::kHollywood, pid, k), "partition")
             ->workload;
  }

  TablePrinter table({"bandwidth", "speedup DBH", "speedup HDRF",
                      "speedup HEP100", "network share (Random)"});
  struct Net {
    const char* label;
    double bytes_per_s;
  };
  for (Net net : {Net{"100 Mbit/s", 12.5e6}, Net{"1 GbE", 125e6},
                  Net{"10 GbE", 1.25e9}, Net{"100 GbE", 12.5e9}}) {
    ClusterSpec cluster = ctx.MakeCluster(k);
    cluster.network_bandwidth = net.bytes_per_s;
    auto epoch = [&](const std::string& name) {
      return SimulateDistGnnEpoch(*workloads.at(name), config, cluster);
    };
    DistGnnEpochReport random = epoch("Random");
    double net_share = random.sync_seconds / random.epoch_seconds;
    table.AddRow(
        {net.label,
         bench::F(random.epoch_seconds / epoch("DBH").epoch_seconds),
         bench::F(random.epoch_seconds / epoch("HDRF").epoch_seconds),
         bench::F(random.epoch_seconds / epoch("HEP100").epoch_seconds),
         bench::F(100.0 * net_share, 1) + "%"});
  }
  bench::Emit(table, "ablation_cluster_1");
  std::cout << "\nReading: the paper's DistGNN speedups (up to 10.4x) are "
               "only reachable in the communication-bound rows; the default "
               "ClusterSpec models 1 GbE.\n";
}

}  // namespace gnnpart::bench
