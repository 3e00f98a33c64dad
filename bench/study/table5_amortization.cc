// Reproduces paper Table 5: epochs until the vertex partitioning time is
// amortized by faster DistDGL training (mean over grid and machine counts;
// Random assumed free). Expected shape: LDG/ByteGNN amortize almost
// immediately; Metis within tens of epochs; KaHIP needs orders of
// magnitude longer (or never, where its speedup is marginal); "no" marks
// slowdowns.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Table5Amortization(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistDGL partitioning-time amortization (epochs)",
                     "paper Table 5", ctx);
  TablePrinter table({"Graph", "ByteGNN", "KaHIP", "LDG", "Spinner",
                      "Metis"});
  for (DatasetId id : AllDatasets()) {
    std::vector<std::string> row{DatasetCode(id)};
    for (const char* name :
         {"ByteGNN", "KaHIP", "LDG", "Spinner", "Metis"}) {
      std::vector<double> epochs;
      bool any_slowdown = false;
      for (int machines : StudyMachineCounts()) {
        const DistDglGridResult& grid = *bench::Unwrap(
            study.DistDglGrid(id, static_cast<PartitionId>(machines),
                              GnnArchitecture::kGraphSage),
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
      row.push_back(epochs.empty() || any_slowdown ? "no"
                                                   : bench::F(Mean(epochs)));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\nNote: absolute values depend on the simulator's time "
               "constants and this host's partitioning speed; the paper's "
               "qualitative claim is the ordering LDG/ByteGNN << Metis << "
               "KaHIP.\n";
}

}  // namespace gnnpart::bench
