// Reproduces paper Figure 16: the distribution of DistDGL GraphSage
// speedups vs. Random over all 27 hyper-parameter configurations, per
// partitioner and machine count. Expected shape: KaHIP and Metis lead;
// speedups are moderate (1.1-3.5x), far below DistGNN's.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig16SpeedupDist(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistDGL GraphSage speedup distribution vs Random",
                     "paper Figure 16", ctx);
  for (int machines : StudyMachineCounts()) {
    std::cout << "\n--- " << machines << " machines ---\n";
    TablePrinter table({"Graph", "Partitioner", "min", "q1", "median", "q3",
                        "max", "mean"});
    for (DatasetId id : AllDatasets()) {
      const DistDglGridResult& grid = *bench::Unwrap(
          study.DistDglGrid(id, static_cast<PartitionId>(machines),
                            GnnArchitecture::kGraphSage),
          "grid");
      for (const std::string& name : grid.partitioners) {
        if (name == "Random") continue;
        DistributionSummary s = Summarize(grid.SpeedupsVsRandom(name));
        table.AddRow({DatasetCode(id), name, bench::F(s.min), bench::F(s.q1),
                      bench::F(s.median), bench::F(s.q3), bench::F(s.max),
                      bench::F(s.mean)});
      }
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
