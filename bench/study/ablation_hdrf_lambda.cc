// Ablation (DESIGN.md): HDRF's lambda balances replication quality against
// load balance. The sweep shows the RF/edge-balance trade-off behind the
// paper-default lambda = 1.1.
#include "bench/study/tables.h"
#include "common/timer.h"
#include "partition/edge/hdrf.h"

namespace gnnpart::bench {

void AblationHdrfLambda(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Ablation: HDRF lambda sweep (OR, 16 partitions)",
                     "DESIGN.md ablation; supports paper Sec. 4.1", ctx);
  const DatasetBundle& bundle =
      *bench::Unwrap(study.Dataset(DatasetId::kOrkut), "dataset");
  TablePrinter table({"lambda", "RF", "edge balance", "time s"});
  for (double lambda : {0.0, 0.5, 1.0, 1.1, 2.0, 5.0, 20.0}) {
    HdrfPartitioner hdrf(lambda);
    WallTimer timer;
    EdgePartitioning parts =
        bench::Unwrap(hdrf.Partition(bundle.graph, 16, ctx.seed), "HDRF");
    double seconds = timer.ElapsedSeconds();
    RecordAssignmentDigest("study/ablation/hdrf_lambda/" + bench::F(lambda, 1),
                           parts.assignment);
    EdgePartitionMetrics m = ComputeEdgePartitionMetrics(bundle.graph, parts);
    table.AddRow({bench::F(lambda, 1), bench::F(m.replication_factor),
                  bench::F(m.edge_balance, 3), bench::F(seconds, 3)});
  }
  table.Print(std::cout);
}

}  // namespace gnnpart::bench
