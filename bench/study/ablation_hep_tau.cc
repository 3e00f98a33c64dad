// Ablation (DESIGN.md): HEP's tau parameter controls how much of the graph
// is partitioned in memory. Sweeping tau shows the quality/time trade-off
// behind the paper's decision to treat HEP10 and HEP100 as two partitioners.
#include "bench/study/tables.h"
#include "common/timer.h"
#include "partition/edge/hep.h"

namespace gnnpart::bench {

void AblationHepTau(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Ablation: HEP tau sweep (OR, 16 partitions)",
                     "DESIGN.md ablation; supports paper Sec. 4.1", ctx);
  const DatasetBundle& bundle =
      *bench::Unwrap(study.Dataset(DatasetId::kOrkut), "dataset");
  TablePrinter table({"tau", "RF", "vertex balance", "time s"});
  for (double tau : {1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0}) {
    HepPartitioner hep(tau);
    WallTimer timer;
    EdgePartitioning parts =
        bench::Unwrap(hep.Partition(bundle.graph, 16, ctx.seed), "HEP");
    double seconds = timer.ElapsedSeconds();
    RecordAssignmentDigest("study/ablation/hep_tau/" + bench::F(tau, 1),
                           parts.assignment);
    EdgePartitionMetrics m = ComputeEdgePartitionMetrics(bundle.graph, parts);
    table.AddRow({bench::F(tau, 1), bench::F(m.replication_factor),
                  bench::F(m.vertex_balance), bench::F(seconds, 3)});
  }
  table.Print(std::cout);
}

}  // namespace gnnpart::bench
