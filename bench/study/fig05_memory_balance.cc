// Reproduces paper Figure 5: memory-utilization balance across machines on
// a 4-machine cluster. Expected shape: memory balance tracks the vertex
// balance of the partitioner (the paper observes a perfect correlation).
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig05MemoryBalance(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Memory utilization balance (4 machines)",
                     "paper Figure 5", ctx);
  const PartitionId k = 4;
  ClusterSpec cluster = ctx.MakeCluster(k);
  GnnConfig config;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;

  TablePrinter table({"Graph", "Partitioner", "vertex balance",
                      "memory balance"});
  std::vector<double> vb_all, mb_all;
  for (DatasetId id : AllDatasets()) {
    for (EdgePartitionerId pid : AllEdgePartitioners()) {
      const EdgeRun& run =
          *bench::Unwrap(study.Edge(id, pid, k), "partition");
      const EdgePartitionMetrics& m = run.metrics;
      DistGnnEpochReport r =
          SimulateDistGnnEpoch(run.workload, config, cluster);
      vb_all.push_back(m.vertex_balance);
      mb_all.push_back(r.memory_balance);
      table.AddRow({DatasetCode(id), MakeEdgePartitioner(pid)->name(),
                    bench::F(m.vertex_balance), bench::F(r.memory_balance)});
    }
  }
  bench::Emit(table, "fig05_memory_balance_1");
  std::cout << "Correlation(vertex balance, memory balance) = "
            << bench::F(PearsonCorrelation(vb_all, mb_all), 4)
            << " (paper: perfect correlation)\n";
}

}  // namespace gnnpart::bench
