// Reproduces paper Figure 18: DistDGL GraphSage speedup vs Random as a
// function of the feature size, on 4 and 32 machines. Expected shape:
// larger features -> larger speedups (feature fetching grows and is what
// good partitioning saves).
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig18FeatureSize(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistDGL speedup by feature size (GraphSage, mean "
                     "over graphs and remaining grid)",
                     "paper Figure 18", ctx);
  for (int machines : {4, 32}) {
    std::cout << "\n--- " << machines << " machines ---\n";
    TablePrinter table({"Partitioner", "feat=16", "feat=64", "feat=512"});
    std::map<std::string, std::map<size_t, std::vector<double>>> acc;
    std::vector<std::string> names;
    for (DatasetId id : AllDatasets()) {
      const DistDglGridResult& grid = *bench::Unwrap(
          study.DistDglGrid(id, static_cast<PartitionId>(machines),
                            GnnArchitecture::kGraphSage),
          "grid");
      if (names.empty()) names = grid.partitioners;
      for (const std::string& name : grid.partitioners) {
        if (name == "Random") continue;
        for (size_t feat : {16u, 64u, 512u}) {
          acc[name][feat].push_back(bench::MeanSpeedupWhere(
              grid, name,
              [&](const GnnConfig& c) { return c.feature_size == feat; }));
        }
      }
    }
    for (const std::string& name : names) {
      if (name == "Random") continue;
      table.AddRow({name, bench::F(Mean(acc[name][16])),
                    bench::F(Mean(acc[name][64])),
                    bench::F(Mean(acc[name][512]))});
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
