// Reproduces paper Figure 20: DistDGL GraphSage speedup vs Random as a
// function of the hidden dimension, on 4 and 32 machines. Expected shape:
// larger hidden dimension -> lower speedups (compute dominates and is the
// same for every partitioner).
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig20HiddenDim(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistDGL speedup by hidden dimension (GraphSage, mean "
                     "over graphs and remaining grid)",
                     "paper Figure 20", ctx);
  for (int machines : {4, 32}) {
    std::cout << "\n--- " << machines << " machines ---\n";
    TablePrinter table(
        {"Partitioner", "hidden=16", "hidden=64", "hidden=512"});
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
        for (size_t hidden : {16u, 64u, 512u}) {
          acc[name][hidden].push_back(bench::MeanSpeedupWhere(
              grid, name,
              [&](const GnnConfig& c) { return c.hidden_dim == hidden; }));
        }
      }
    }
    for (const std::string& name : names) {
      if (name == "Random") continue;
      table.AddRow({name, bench::F(Mean(acc[name][16])),
                    bench::F(Mean(acc[name][64])),
                    bench::F(Mean(acc[name][512]))});
    }
    bench::Emit(table, "fig20_hidden_dim_1");
  }
}

}  // namespace gnnpart::bench
