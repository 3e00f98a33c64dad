#ifndef GNNPART_BENCH_STUDY_TABLES_H_
#define GNNPART_BENCH_STUDY_TABLES_H_

#include "bench/bench_util.h"

/// One function per study table, figure or ablation, each in its own file
/// under bench/study/. bench_study.cc lists them in run order. Every table
/// draws datasets, partitionings, profiles and grids from the shared Study
/// memo, so an artifact is computed once per process.
namespace gnnpart::bench {

void AblationCluster(Study& study);
void AblationCommunities(Study& study);
void AblationHdrfLambda(Study& study);
void AblationHepTau(Study& study);
void AblationMultilevel(Study& study);
void Datasets(Study& study);
void ExtensionPartitioners(Study& study);
void Fig02Replication(Study& study);
void Fig03RfVsNetwork(Study& study);
void Fig04VertexBalance(Study& study);
void Fig05MemoryBalance(Study& study);
void Fig06PartitionTime(Study& study);
void Fig07SpeedupDist(Study& study);
void Fig08RfVsSpeedup(Study& study);
void Fig09MemoryDist(Study& study);
void Fig10MemoryParams(Study& study);
void Fig11Scaleout(Study& study);
void Fig12Edgecut(Study& study);
void Fig13TrainBalance(Study& study);
void Fig14InputBalance(Study& study);
void Fig15PartitionTime(Study& study);
void Fig16SpeedupDist(Study& study);
void Fig17TimeBalance(Study& study);
void Fig18FeatureSize(Study& study);
void Fig19PhaseFeature(Study& study);
void Fig20HiddenDim(Study& study);
void Fig21PhaseLayers(Study& study);
void Fig22PhaseHidden(Study& study);
void Fig23Layers(Study& study);
void Fig24Scaleout(Study& study);
void Fig25GatSage(Study& study);
void Fig26Batchsize(Study& study);
void FigDyn(Study& study);
void FigOverlap(Study& study);
void FigServe(Study& study);
void FigSmp(Study& study);
void Table4Amortization(Study& study);
void Table5Amortization(Study& study);

}  // namespace gnnpart::bench

#endif  // GNNPART_BENCH_STUDY_TABLES_H_
