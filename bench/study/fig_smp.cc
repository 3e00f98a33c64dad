// fig-smp: split-merge scaling of the streaming edge partitioners
// (EXPERIMENTS.md "fig-smp", DESIGN.md §11). For HDRF, 2PS-L and HEP100 on
// EN at k=8, each split factor in {1, 2, 4, 8} reports the measured wall
// time, the critical path (slowest shard + serial merge — the wall time a
// pool with one core per shard observes), the critical-path speedup over
// the sequential run, and the quality paid for it (replication factor and
// edge balance vs split factor 1). Every cell's execution plan is
// validated. The total replica count and the split-merge plan counters are
// published as deterministic obs rows, so CI gates the quality surface
// byte-exactly while the (det:false) timers stay informational.
#include <algorithm>
#include <numeric>

#include "bench/study/tables.h"

#include "check/validators.h"
#include "metrics/partition_metrics.h"
#include "partition/edge/registry.h"
#include "partition/split_merge.h"

namespace gnnpart::bench {

void FigSmp(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Split-merge streaming partitioner scaling",
                     "EXPERIMENTS.md fig-smp (DESIGN.md §11)", ctx);

  constexpr PartitionId kParts = 8;
  const DatasetId dataset = DatasetId::kEnwiki;
  const DatasetBundle& bundle =
      *bench::Unwrap(study.Dataset(dataset), "dataset");
  const Graph& graph = bundle.graph;

  TablePrinter table({"Partitioner", "Split", "Wall ms", "CP ms",
                      "CP speedup", "RF", "RF ratio", "Edge balance"});
  for (EdgePartitionerId pid :
       {EdgePartitionerId::kHdrf, EdgePartitionerId::kTwoPsL,
        EdgePartitionerId::kHep100}) {
    double sequential_ms = 0;
    double sequential_rf = 0;
    for (int factor : {1, 2, 4, 8}) {
      SplitMergePartitioner partitioner(MakeStreamingEdgePartitioner(pid),
                                        factor);
      SplitMergePlan plan;
      WallTimer wall;
      EdgePartitioning parts = bench::Unwrap(
          partitioner.PartitionWithPlan(graph, kParts, ctx.seed, &plan),
          "partition");
      const double wall_ms = wall.ElapsedSeconds() * 1e3;
      // At factor 1 the run is the sequential partitioner itself, so the
      // critical path IS the measured wall.
      double cp_ms = wall_ms;
      if (factor > 1) {
        const double max_shard =
            *std::max_element(plan.shard_seconds.begin(),
                              plan.shard_seconds.end());
        cp_ms = (max_shard + plan.merge_seconds) * 1e3;
      }
      if (factor == 1) sequential_ms = wall_ms;

      Status ok = check::ValidateSplitMergePlan(graph, plan, parts);
      if (!ok.ok()) {
        std::cerr << "FATAL: " << ok << "\n";
        std::exit(1);
      }
      EdgePartitionMetrics metrics = ComputeEdgePartitionMetrics(graph, parts);
      if (factor == 1) sequential_rf = metrics.replication_factor;

      const std::string name = partitioner.name();
      obs::Count("bench/fig_smp/" + name + "/replicas",
                 std::accumulate(metrics.vertices_per_partition.begin(),
                                 metrics.vertices_per_partition.end(),
                                 uint64_t{0}),
                 "replicas");
      obs::RecordSeconds("bench/fig_smp/" + name + "/partition_seconds",
                         wall_ms / 1e3);
      table.AddRow({name, std::to_string(factor), bench::F(wall_ms, 2),
                    bench::F(cp_ms, 2),
                    bench::F(cp_ms > 0 ? sequential_ms / cp_ms : 0, 2),
                    bench::F(metrics.replication_factor, 3),
                    bench::F(sequential_rf > 0
                                 ? metrics.replication_factor / sequential_rf
                                 : 0,
                             3),
                    bench::F(metrics.edge_balance, 3)});
    }
  }
  table.Print(std::cout);
  std::cout
      << "\nSplit factor 1 is the unmodified sequential partitioner\n"
         "(bit-identical output, see tests/split_merge_test.cc). CP is the\n"
         "critical path (slowest shard + serial merge), i.e. the wall time\n"
         "with one core per shard; on fewer cores shards serialize and the\n"
         "measured wall exceeds it. The RF ratio column is the quality\n"
         "price of shard parallelism.\n";
}

}  // namespace gnnpart::bench
