// Reproduces paper Figure 8: replication factor vs. speedup on EN, with the
// vertex balance annotated. Expected shape: lower RF -> higher speedup; at
// similar RF, a worse vertex balance (2PS-L) costs speedup.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig08RfVsSpeedup(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Replication factor vs speedup on EN (vertex balance "
                     "in brackets)",
                     "paper Figure 8", ctx);
  for (int machines : {8, 32}) {
    std::cout << "\n--- " << machines << " machines ---\n";
    const DistGnnGridResult& grid = *bench::Unwrap(
        study.DistGnnGrid(DatasetId::kEnwiki,
                          static_cast<PartitionId>(machines)),
        "grid");
    TablePrinter table({"Partitioner", "RF", "mean speedup", "VB"});
    for (const std::string& name : grid.partitioners) {
      if (name == "Random") continue;
      double speedup = Mean(grid.SpeedupsVsRandom(name));
      const EdgePartitionMetrics& m = grid.metrics.at(name);
      table.AddRow({name, bench::F(m.replication_factor),
                    bench::F(speedup),
                    "(" + bench::F(m.vertex_balance) + ")"});
    }
    bench::Emit(table, "fig08_rf_vs_speedup_1");
  }
}

}  // namespace gnnpart::bench
