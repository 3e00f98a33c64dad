// Reproduces paper Figure 23: DistDGL GraphSage speedup vs Random as a
// function of the number of layers, on 4 and 32 machines. Expected shape:
// no clear trend — the layer count affects all phases roughly equally, so
// the partitioners' relative standing barely moves.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig23Layers(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistDGL speedup by number of layers (GraphSage, mean "
                     "over graphs and remaining grid)",
                     "paper Figure 23", ctx);
  for (int machines : {4, 32}) {
    std::cout << "\n--- " << machines << " machines ---\n";
    TablePrinter table({"Partitioner", "L=2", "L=3", "L=4"});
    std::map<std::string, std::map<int, std::vector<double>>> acc;
    std::vector<std::string> names;
    for (DatasetId id : AllDatasets()) {
      const DistDglGridResult& grid = *bench::Unwrap(
          study.DistDglGrid(id, static_cast<PartitionId>(machines),
                            GnnArchitecture::kGraphSage),
          "grid");
      if (names.empty()) names = grid.partitioners;
      for (const std::string& name : grid.partitioners) {
        if (name == "Random") continue;
        for (int layers : {2, 3, 4}) {
          acc[name][layers].push_back(bench::MeanSpeedupWhere(
              grid, name,
              [&](const GnnConfig& c) { return c.num_layers == layers; }));
        }
      }
    }
    for (const std::string& name : names) {
      if (name == "Random") continue;
      table.AddRow({name, bench::F(Mean(acc[name][2])),
                    bench::F(Mean(acc[name][3])),
                    bench::F(Mean(acc[name][4]))});
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
