// Reproduces paper Figure 3: replication factor vs. network communication
// on OR, for different machine counts and layer counts. The paper reports
// R^2 >= 0.98 for the linear fit; the simulator reproduces the correlation
// because replica synchronization is the only volume term.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig03RfVsNetwork(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Replication factor vs network traffic (OR)",
                     "paper Figure 3", ctx);
  for (int layers : {2, 3, 4}) {
    std::cout << "\n--- " << layers << " layers ---\n";
    TablePrinter table({"machines", "partitioner", "RF", "network GB"});
    std::vector<double> rf_all, net_all;
    for (int machines : StudyMachineCounts()) {
      ClusterSpec cluster = ctx.MakeCluster(machines);
      GnnConfig config;
      config.num_layers = layers;
      config.feature_size = 64;
      config.hidden_dim = 64;
      config.num_classes = 16;
      for (EdgePartitionerId pid : AllEdgePartitioners()) {
        const DistGnnWorkload& w =
            bench::Unwrap(study.Edge(DatasetId::kOrkut, pid,
                                     static_cast<PartitionId>(machines)),
                          "partition")
                ->workload;
        DistGnnEpochReport r = SimulateDistGnnEpoch(w, config, cluster);
        rf_all.push_back(w.replication_factor);
        net_all.push_back(r.total_network_bytes);
        table.AddRow({std::to_string(machines),
                      MakeEdgePartitioner(pid)->name(),
                      bench::F(w.replication_factor),
                      bench::F(r.total_network_bytes / 1e9, 3)});
      }
    }
    bench::Emit(table, "fig03_rf_vs_network_1");
    std::cout << "Linear fit RF -> network: R^2 = "
              << bench::F(RSquaredLinear(rf_all, net_all), 4)
              << " (paper: >= 0.98)\n";
  }
}

}  // namespace gnnpart::bench
