// Reproduces paper Figure 17: balance of per-worker training time
// (GraphSage, 3 layers, feature 64, hidden 64). Expected shape: all
// partitioners show noticeable imbalance — even with balanced training
// vertices the computation time differs across workers.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig17TimeBalance(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Per-worker training-time balance (GraphSage)",
                     "paper Figure 17", ctx);
  GnnConfig config;
  config.arch = GnnArchitecture::kGraphSage;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);

  for (PartitionId k : {8u, 32u}) {
    std::cout << "\n--- " << k << " workers ---\n";
    ClusterSpec cluster = ctx.MakeCluster(static_cast<int>(k));
    TablePrinter table(
        {"Graph", "Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"});
    for (DatasetId id : AllDatasets()) {
      std::vector<std::string> row{DatasetCode(id)};
      for (VertexPartitionerId pid : AllVertexPartitioners()) {
        const DistDglEpochProfile& profile = *bench::Unwrap(
            study.Profile(id, pid, k, 3, ctx.global_batch_size), "profile");
        obs::EventLog events;
        DistDglEpochReport r =
            SimulateDistDglEpoch(profile, config, cluster, nullptr, nullptr,
                                 bench::MaybeEvents(&events));
        bench::MaybeWriteTrace(events, DatasetCode(id) + "_" +
                                        MakeVertexPartitioner(pid)->name() +
                                        "_k" + std::to_string(k));
        row.push_back(bench::F(r.time_balance, 3));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
