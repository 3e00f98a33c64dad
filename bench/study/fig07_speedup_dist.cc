// Reproduces paper Figure 7: the distribution of DistGNN training speedups
// vs. Random over all 27 hyper-parameter configurations, per partitioner
// and machine count. Expected shape: HEP100 > HEP10 >> HDRF/2PS-L/DBH > 1,
// and effectiveness grows with the machine count.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig07SpeedupDist(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistGNN speedup distribution vs Random",
                     "paper Figure 7", ctx);
  for (int machines : StudyMachineCounts()) {
    std::cout << "\n--- " << machines << " machines ---\n";
    TablePrinter table({"Graph", "Partitioner", "min", "q1", "median", "q3",
                        "max", "mean"});
    for (DatasetId id : AllDatasets()) {
      const DistGnnGridResult& grid = *bench::Unwrap(
          study.DistGnnGrid(id, static_cast<PartitionId>(machines)),
          "grid");
      for (const std::string& name : grid.partitioners) {
        if (name == "Random") continue;
        DistributionSummary s = Summarize(grid.SpeedupsVsRandom(name));
        table.AddRow({DatasetCode(id), name, bench::F(s.min), bench::F(s.q1),
                      bench::F(s.median), bench::F(s.q3), bench::F(s.max),
                      bench::F(s.mean)});
      }
    }
    bench::Emit(table, "fig07_speedup_dist_1");
  }
}

}  // namespace gnnpart::bench
