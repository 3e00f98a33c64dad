// Reproduces paper Figure 26: the influence of the mini-batch size on
// partitioner effectiveness for a 3-layer GraphSage/GAT with hidden 64 and
// feature size 512 on OR, 16 workers — (a) speedup, (b) network in % of
// Random, (c) remote vertices in % of Random. Expected shape: with large
// features, bigger batches increase effectiveness; network/remote shares
// drop because overlap inside larger batches grows.
//
// Batch sizes are the paper's 512..32768 scaled by ~1/8, matching the
// graph-size scale-down.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig26Batchsize(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Batch-size sweep (3 layers, hidden 64, feat 512, OR, "
                     "16 workers)",
                     "paper Figure 26", ctx);
  const PartitionId k = 16;
  ClusterSpec cluster = ctx.MakeCluster(k);
  const std::vector<size_t> batches{64, 128, 256, 512, 1024, 2048, 4096};

  for (GnnArchitecture arch :
       {GnnArchitecture::kGraphSage, GnnArchitecture::kGat}) {
    std::cout << "\n=== " << ArchitectureName(arch) << " ===\n";
    GnnConfig config;
    config.arch = arch;
    config.num_layers = 3;
    config.feature_size = 512;
    config.hidden_dim = 64;
    config.num_classes = 16;

    TablePrinter su({"Partitioner/GBS"});
    std::vector<std::string> header{"Partitioner"};
    for (size_t b : batches) header.push_back(std::to_string(b));
    TablePrinter speed(header), net(header), remote(header);

    // Random baselines per batch size.
    std::vector<DistDglEpochReport> base;
    std::vector<double> base_remote;
    for (size_t b : batches) {
      const DistDglEpochProfile& p = *bench::Unwrap(
          study.Profile(DatasetId::kOrkut, VertexPartitionerId::kRandom, k, 3,
                        b),
          "profile");
      base.push_back(SimulateDistDglEpoch(p, config, cluster));
      base_remote.push_back(
          static_cast<double>(p.TotalRemoteInputVertices()));
    }

    for (VertexPartitionerId pid :
         {VertexPartitionerId::kByteGnn, VertexPartitionerId::kKahip,
          VertexPartitionerId::kMetis, VertexPartitionerId::kSpinner}) {
      std::vector<std::string> srow{MakeVertexPartitioner(pid)->name()};
      std::vector<std::string> nrow = srow, rrow = srow;
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const DistDglEpochProfile& p = *bench::Unwrap(
            study.Profile(DatasetId::kOrkut, pid, k, 3, batches[bi]),
            "profile");
        DistDglEpochReport r = SimulateDistDglEpoch(p, config, cluster);
        srow.push_back(
            bench::F(base[bi].epoch_seconds / r.epoch_seconds));
        nrow.push_back(bench::F(
            100.0 * r.total_network_bytes / base[bi].total_network_bytes,
            1));
        rrow.push_back(bench::F(
            100.0 * static_cast<double>(p.TotalRemoteInputVertices()) /
                std::max(1.0, base_remote[bi]),
            1));
      }
      speed.AddRow(srow);
      net.AddRow(nrow);
      remote.AddRow(rrow);
    }
    std::cout << "\n(a) speedup vs Random\n";
    bench::Emit(speed, "fig26_batchsize_1");
    std::cout << "\n(b) network traffic in % of Random\n";
    bench::Emit(net, "fig26_batchsize_2");
    std::cout << "\n(c) remote vertices in % of Random\n";
    bench::Emit(remote, "fig26_batchsize_3");
  }
}

}  // namespace gnnpart::bench
