// Reproduces paper Figure 11: DistGNN effectiveness vs. scale-out factor —
// (a) mean speedup, (b) mean memory in % of Random, (c) replication factor
// in % of Random. Expected shape: all three improve with more machines; the
// HEP variants improve most sharply.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig11Scaleout(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistGNN scale-out effectiveness (mean over graphs "
                     "and grid)",
                     "paper Figure 11", ctx);

  std::vector<std::string> names;
  // name -> machines -> accumulated values over graphs.
  std::map<std::string, std::map<int, std::vector<double>>> speedups,
      mem_pct, rf_pct;

  for (int machines : StudyMachineCounts()) {
    for (DatasetId id : AllDatasets()) {
      if (id == DatasetId::kDimacsUsa) continue;  // DI OOMs under Random
      const DistGnnGridResult& grid = *bench::Unwrap(
          study.DistGnnGrid(id, static_cast<PartitionId>(machines)),
          "grid");
      if (names.empty()) names = grid.partitioners;
      double rf_random = grid.metrics.at("Random").replication_factor;
      for (const std::string& name : grid.partitioners) {
        if (name == "Random") continue;
        speedups[name][machines].push_back(
            Mean(grid.SpeedupsVsRandom(name)));
        mem_pct[name][machines].push_back(
            Mean(grid.MemoryPercentOfRandom(name)));
        rf_pct[name][machines].push_back(
            100.0 * grid.metrics.at(name).replication_factor / rf_random);
      }
    }
  }

  auto print_section = [&](const std::string& title,
                           std::map<std::string, std::map<int, std::vector<double>>>& data,
                           int prec) {
    std::cout << "\n" << title << "\n";
    TablePrinter table({"Partitioner", "4", "8", "16", "32"});
    for (const std::string& name : names) {
      if (name == "Random") continue;
      std::vector<std::string> row{name};
      for (int machines : StudyMachineCounts()) {
        row.push_back(bench::F(Mean(data[name][machines]), prec));
      }
      table.AddRow(row);
    }
    bench::Emit(table, "fig11_scaleout_1");
  };
  print_section("(a) mean speedup vs Random", speedups, 2);
  print_section("(b) memory in % of Random (lower is better)", mem_pct, 1);
  print_section("(c) replication factor in % of Random (lower is better)",
                rf_pct, 1);
}

}  // namespace gnnpart::bench
