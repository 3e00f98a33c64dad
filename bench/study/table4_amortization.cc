// Reproduces paper Table 4: the number of training epochs until the edge
// partitioning time is amortized by faster DistGNN training (mean over the
// hyper-parameter grid and machine counts; Random is assumed free).
// Expected shape: DBH amortizes fastest (cheapest partitioner); HEP100
// amortizes within a few epochs despite its cost because its speedups are
// the largest; "no" marks slowdowns.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Table4Amortization(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistGNN partitioning-time amortization (epochs)",
                     "paper Table 4", ctx);
  TablePrinter table({"Graph", "DBH", "2PS-L", "HDRF", "HEP10", "HEP100"});
  for (DatasetId id :
       {DatasetId::kEnwiki, DatasetId::kEu, DatasetId::kHollywood,
        DatasetId::kOrkut}) {
    std::vector<std::string> row{DatasetCode(id)};
    for (const char* name :
         {"DBH", "2PS-L", "HDRF", "HEP10", "HEP100"}) {
      // Average the amortization across the paper's machine counts.
      std::vector<double> epochs;
      bool any_slowdown = false;
      for (int machines : StudyMachineCounts()) {
        const DistGnnGridResult& grid = *bench::Unwrap(
            study.DistGnnGrid(id, static_cast<PartitionId>(machines)),
            "grid");
        std::vector<double> t_random, t_mine;
        for (const auto& r : grid.reports.at("Random")) {
          t_random.push_back(r.epoch_seconds);
        }
        for (const auto& r : grid.reports.at(name)) {
          t_mine.push_back(r.epoch_seconds);
        }
        double a = AmortizationEpochs(t_random, t_mine,
                                      grid.partition_seconds.at(name));
        if (a < 0) {
          any_slowdown = true;
        } else {
          epochs.push_back(a);
        }
      }
      row.push_back(epochs.empty() || any_slowdown
                        ? "no"
                        : bench::F(Mean(epochs)));
    }
    table.AddRow(row);
  }
  bench::Emit(table, "table4_amortization_1");
  std::cout << "\nNote: absolute values depend on the simulator's time "
               "constants and this host's partitioning speed; the paper's "
               "qualitative claim is amortization within a few epochs.\n";
}

}  // namespace gnnpart::bench
