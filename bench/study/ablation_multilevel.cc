// Ablation (DESIGN.md): the multilevel engine's knobs — V-cycles, refine
// passes, initial tries — are what separate the Metis-like configuration
// from the KaHIP-like one. This sweep shows each knob's cut/time trade-off.
#include "bench/study/tables.h"
#include "common/timer.h"
#include "partition/vertex/multilevel.h"

namespace gnnpart::bench {

void AblationMultilevel(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Ablation: multilevel knobs (OR, 8 partitions)",
                     "DESIGN.md ablation; Metis-like vs KaHIP-like configs",
                     ctx);
  const DatasetBundle& bundle =
      *bench::Unwrap(study.Dataset(DatasetId::kOrkut), "dataset");
  TablePrinter table({"passes", "v-cycles", "tries", "edge-cut",
                      "vertex balance", "time s"});
  struct Config {
    int passes, cycles, tries;
  };
  for (Config cfg : {Config{1, 1, 1}, Config{4, 1, 8}, Config{4, 3, 8},
                     Config{10, 1, 8}, Config{10, 6, 12}, Config{20, 6, 12}}) {
    MultilevelParams params;
    params.refine_passes = cfg.passes;
    params.v_cycles = cfg.cycles;
    params.initial_tries = cfg.tries;
    WallTimer timer;
    VertexPartitioning parts = bench::Unwrap(
        MultilevelPartition(bundle.graph, 8, ctx.seed, params), "multilevel");
    double seconds = timer.ElapsedSeconds();
    VertexPartitionMetrics m =
        ComputeVertexPartitionMetrics(bundle.graph, parts, bundle.split);
    table.AddRow({std::to_string(cfg.passes), std::to_string(cfg.cycles),
                  std::to_string(cfg.tries), bench::F(m.edge_cut_ratio, 4),
                  bench::F(m.vertex_balance), bench::F(seconds, 3)});
  }
  bench::Emit(table, "ablation_multilevel_1");
}

}  // namespace gnnpart::bench
