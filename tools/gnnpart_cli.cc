// gnnpart command-line tool: generate datasets, inspect graphs, partition
// edge-list files with any of the study's algorithms, verify structural
// invariants, and simulate distributed training epochs — the library's
// functionality for users who bring their own graphs.
//
//   gnnpart_cli generate <HW|DI|EN|EU|OR> <scale> <out-file> [seed]
//   gnnpart_cli info <graph-file> [--directed]
//   gnnpart_cli partition <graph-file> <partitioner> <k> [out-file]
//       [--directed] [--seed N] [--split-factor N]
//   gnnpart_cli check <graph-file> [<partitioner>|all <k>]
//       [--directed] [--seed N] [--split-factor N]
//   gnnpart_cli simulate <graph-file> <partitioner> <k>
//       [--feature N] [--hidden N] [--layers N] [--gbs N] [--directed]
//       [--trace-out FILE] [--topology T] [--oversubscription N]
//       [--rack-size N] [--nic-gbps N] [--split-factor N]
//   gnnpart_cli explain <graph-file> <partitioner> <k> [same flags]
//       [--baseline FILE] [--top N]
//   gnnpart_cli explain <events.jsonl> [--baseline FILE] [--top N]
//   gnnpart_cli dyn-run <graph-file> <partitioner> <k>
//       [--growth-batches N] [--initial-fraction PCT]
//       [--epochs-per-batch N] [--repartition-every N] [--rf-threshold PCT]
//       [--migration-penalty PCT] [simulate flags]
//   gnnpart_cli serve-run <graph-file> <partitioner> <k>
//       [--arrival-rate R] [--duration S] [--batch-size N]
//       [--batch-wait S] [--serve-weight W] [--cotenant]
//       [model/network flags] [--events-out FILE]
//   gnnpart_cli metrics <manifest.jsonl>
//
// Graph files are whitespace edge lists ("u v" per line, '#' comments) or
// the library's .bin snapshots (by extension).
//
// Argument handling is strict: unknown flags and missing or surplus
// positional arguments exit non-zero with the usage message instead of
// being silently ignored.
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/validators.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/table.h"
#include "common/timer.h"
#include "dyn/driver.h"
#include "gen/datasets.h"
#include "graph/components.h"
#include "graph/degree_stats.h"
#include "graph/io.h"
#include "metrics/partition_metrics.h"
#include "net/flowsim.h"
#include "net/metrics.h"
#include "net/overlap.h"
#include "net/topology.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "partition/edge/registry.h"
#include "partition/split_merge.h"
#include "partition/vertex/registry.h"
#include "serve/serve.h"
#include "serve/workload.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"
#include "trace/explain.h"
#include "trace/export.h"
#include "trace/report.h"

using namespace gnnpart;

namespace {

int Usage() {
  std::cerr
      << "usage:\n"
         "  gnnpart_cli generate <HW|DI|EN|EU|OR> <scale> <out> [seed]\n"
         "  gnnpart_cli info <graph> [--directed]\n"
         "  gnnpart_cli partition <graph> <partitioner> <k> [out]\n"
         "      [--directed] [--seed N] [--split-factor N]\n"
         "  gnnpart_cli check <graph> [<partitioner>|all <k>]\n"
         "      [--directed] [--seed N]  validate CSR invariants; with a\n"
         "      partitioner, verify the partitioning and recompute its\n"
         "      metrics bit-exactly ('all' runs the study's 12)\n"
         "      [--split-factor N]  also validate the split-merge plan\n"
         "  gnnpart_cli simulate <graph> <partitioner> <k> [--feature N]\n"
         "      [--hidden N] [--layers N] [--gbs N] [--directed] [--seed N]\n"
         "      [--trace-out FILE]  per-(step,worker,phase) timeline;\n"
         "      .csv -> flat CSV, else Chrome trace_event JSON (Perfetto)\n"
         "      with spans on pid 0 and network flows on pid 2\n"
         "      [--topology full-bisection|fat-tree|ring]  cluster fabric\n"
         "      [--oversubscription N] [--rack-size N]  fat-tree shape\n"
         "      [--nic-gbps N]  per-host NIC bandwidth\n"
         "      [--split-factor N]  split-merge parallel streaming mode\n"
         "      (HDRF/2PS-L/HEP only; 1 = sequential, bit-identical)\n"
         "  gnnpart_cli explain <graph> <partitioner> <k> | <events.jsonl>\n"
         "      [simulate flags]  attribute the epoch's critical path to\n"
         "      compute / barrier wait / congestion / migration; per link:\n"
         "      bytes, busy time, utilization, contention, peak/p99 and the\n"
         "      partition pairs responsible; per worker: per-phase and\n"
         "      pipelined straggler blame, wait, busy, comm and compute;\n"
         "      the last epoch's critical path and most expensive steps; the\n"
         "      bsp-vs-pipelined overlap line. A single event-log argument\n"
         "      (written by --events-out) replays a saved run bit-exactly\n"
         "      [--baseline FILE]  diff against an event log written by\n"
         "      --events-out\n"
         "      [--top N]  rows in the link/worker/step tables (default 5)\n"
         "  gnnpart_cli dyn-run <graph> <partitioner> <k>\n"
         "      [--growth-batches N]  growth batches after the initial\n"
         "      snapshot (0 = static run, bit-identical to 'simulate')\n"
         "      [--initial-fraction PCT]  edges in the initial snapshot\n"
         "      [--epochs-per-batch N]  training epochs per interval\n"
         "      [--repartition-every N]  period trigger (0 = off)\n"
         "      [--rf-threshold PCT]  quality trigger: repartition when\n"
         "      RF / edge-cut exceeds PCT% of the last baseline (0 = off)\n"
         "      [--migration-penalty PCT]  ReFennel/ReLDG stay bonus\n"
         "      (migration cost in neighbor-score units, default 50)\n"
         "      [simulate flags]  --feature/--hidden/--layers/--gbs,\n"
         "      --seed, --directed, --trace-out and the network flags\n"
         "  gnnpart_cli serve-run <graph> <partitioner> <k>\n"
         "      multi-tenant inference serving: open-loop requests, batched\n"
         "      per partition, priced on the shared fabric; reports\n"
         "      p50/p95/p99 latency and a queue/compute/network/congestion\n"
         "      breakdown\n"
         "      [--arrival-rate R]  requests per simulated second\n"
         "      (default 200)\n"
         "      [--duration S]  arrival window in simulated seconds\n"
         "      (default 1)\n"
         "      [--batch-size N]  dispatch when a partition queue reaches\n"
         "      N requests (default 8)\n"
         "      [--batch-wait S]  max seconds the oldest request waits\n"
         "      before its queue dispatches anyway (default 0.002; 0 =\n"
         "      dispatch on arrival)\n"
         "      [--serve-weight W]  fair-share weight of serving flows vs\n"
         "      weight-1 training flows (default 4; 1 = no preemption)\n"
         "      [--cotenant]  replay a DistDGL training epoch on the same\n"
         "      fabric for the whole serving window\n"
         "      [model/network flags]  --feature/--hidden/--layers/--gbs,\n"
         "      --seed, --directed, --topology, --oversubscription,\n"
         "      --rack-size, --nic-gbps; plus --events-out\n"
         "  gnnpart_cli metrics <manifest.jsonl>  pretty-print a run\n"
         "      manifest written by --metrics-out\n"
         "partitioners: Random DBH HDRF 2PS-L HEP10 HEP100 Greedy (edge)\n"
         "              Random LDG Spinner Metis ByteGNN KaHIP Fennel"
         " (vertex; prefix with 'v' for Random, e.g. vRandom)\n"
         "global flags: --threads N  worker threads (default: all cores;\n"
         "              results are identical for every N)\n"
         "              --metrics-out FILE  write a JSONL run manifest of\n"
         "              all counters/gauges/histograms/timers at exit\n"
         "shared flag:  --events-out FILE  write the causal event timeline\n"
         "              (spans, flows, link samples, repartitions) as JSONL;\n"
         "              accepted by simulate/explain/dyn-run/serve-run,\n"
         "              byte-identical for every --threads N\n";
  return 2;
}

/// A flag a subcommand accepts, and whether it consumes the next argument.
struct FlagSpec {
  const char* name;
  bool takes_value;
};

/// Splits `args` into positional arguments, rejecting unknown flags and
/// wrong positional counts loudly (exit 2 + usage) instead of the old
/// behavior of silently ignoring stray arguments.
std::vector<std::string> Positionals(const std::vector<std::string>& args,
                                     const std::vector<FlagSpec>& flags,
                                     size_t min_count, size_t max_count) {
  std::vector<std::string> positionals;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() > 1 && arg[0] == '-' &&
        !std::isdigit(static_cast<unsigned char>(arg[1]))) {
      const FlagSpec* spec = nullptr;
      for (const FlagSpec& f : flags) {
        if (arg == f.name) {
          spec = &f;
          break;
        }
      }
      if (spec == nullptr) {
        std::cerr << "error: unknown flag '" << arg << "'\n";
        std::exit(Usage());
      }
      if (spec->takes_value) {
        if (i + 1 >= args.size()) {
          std::cerr << "error: " << arg << " requires a value\n";
          std::exit(Usage());
        }
        ++i;  // the value is consumed by the FlagValue lookups
      }
      continue;
    }
    positionals.push_back(arg);
  }
  if (positionals.size() < min_count || positionals.size() > max_count) {
    std::cerr << "error: expected between " << min_count << " and "
              << max_count << " positional arguments, got "
              << positionals.size() << "\n";
    std::exit(Usage());
  }
  return positionals;
}

bool HasFlag(const std::vector<std::string>& args, const std::string& flag) {
  for (const auto& a : args) {
    if (a == flag) return true;
  }
  return false;
}

/// The value after the first `flag` in `args`, or nullptr when the flag is
/// absent. A trailing flag with no value is a loud exit 2.
const std::string* FindFlagValue(const std::vector<std::string>& args,
                                 const std::string& flag) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << flag << " requires a value\n";
      std::exit(2);
    }
    return &args[i + 1];
  }
  return nullptr;
}

/// Exit 2 for a flag value that failed its parse: names the flag, the value
/// and what was `expected`, with `max` unless it is the type's own maximum.
template <typename T>
[[noreturn]] void InvalidFlagValue(const std::string& flag,
                                   const std::string& value,
                                   const char* expected, T max) {
  std::cerr << "error: invalid " << flag << " value '" << value
            << "' (expected a " << expected;
  if (max != std::numeric_limits<T>::max()) std::cerr << " <= " << max;
  std::cerr << ")\n";
  std::exit(2);
}

/// Validated `--flag N` lookup: absent -> `fallback`; present with a
/// missing, non-numeric, non-positive or > `max` value -> loud exit (no
/// silent atol-style zero defaults).
long FlagValue(const std::vector<std::string>& args, const std::string& flag,
               long fallback, long max = std::numeric_limits<long>::max()) {
  const std::string* value = FindFlagValue(args, flag);
  if (value == nullptr) return fallback;
  const long v = ParsePositiveInt(value->c_str(), max);
  if (v < 1) InvalidFlagValue(flag, *value, "positive integer", max);
  return v;
}

/// Validated `--flag N` lookup for flags where 0 means "off": like
/// FlagValue, but 0 is accepted.
long NonNegativeFlagValue(const std::vector<std::string>& args,
                          const std::string& flag, long fallback,
                          long max = std::numeric_limits<long>::max()) {
  const std::string* value = FindFlagValue(args, flag);
  if (value == nullptr) return fallback;
  const long v = ParseNonNegativeInt(value->c_str(), max);
  if (v < 0) InvalidFlagValue(flag, *value, "non-negative integer", max);
  return v;
}

/// Validated `--flag X` lookup for fractional flags (--rf-threshold,
/// --migration-penalty, --initial-fraction, --arrival-rate, ...): absent
/// -> `fallback`; present with a missing, non-numeric, non-positive,
/// non-finite or > `max` value -> loud exit 2 via ParsePositiveDouble, the
/// FP twin of the integer FlagValue path.
double DoubleFlagValue(const std::vector<std::string>& args,
                       const std::string& flag, double fallback,
                       double max = std::numeric_limits<double>::max()) {
  const std::string* value = FindFlagValue(args, flag);
  if (value == nullptr) return fallback;
  const double v = ParsePositiveDouble(value->c_str(), max);
  if (v < 0) InvalidFlagValue(flag, *value, "positive number", max);
  return v;
}

/// DoubleFlagValue, but a literal zero is accepted — for flags where 0
/// means "off" (--rf-threshold, --migration-penalty) or "immediately"
/// (--batch-wait). "-0" and negative values stay rejected.
double NonNegativeDoubleFlagValue(
    const std::vector<std::string>& args, const std::string& flag,
    double fallback, double max = std::numeric_limits<double>::max()) {
  const std::string* value = FindFlagValue(args, flag);
  if (value == nullptr) return fallback;
  const char* s = value->c_str();
  errno = 0;
  char* end = nullptr;
  const double z = std::strtod(s, &end);
  if (errno == 0 && end != s && *end == '\0' && z == 0 && !std::signbit(z)) {
    return 0.0;
  }
  const double v = ParsePositiveDouble(s, max);
  if (v < 0) InvalidFlagValue(flag, *value, "non-negative number", max);
  return v;
}

std::string StringFlagValue(const std::vector<std::string>& args,
                            const std::string& flag) {
  const std::string* value = FindFlagValue(args, flag);
  return value == nullptr ? "" : *value;
}

/// Validated positional partition count.
PartitionId ParseK(const std::string& arg) {
  const long v = ParsePositiveInt(arg.c_str(), kMaxPartitions);
  if (v < 1) {
    std::cerr << "error: invalid partition count '" << arg
              << "' (expected an integer in [1, " << kMaxPartitions << "])\n";
    std::exit(2);
  }
  return static_cast<PartitionId>(v);
}

/// Validated --split-factor lookup shared by partition / check / simulate:
/// factor 1 (the default) runs the sequential partitioner unchanged.
int ParseSplitFactor(const std::vector<std::string>& args) {
  return static_cast<int>(
      FlagValue(args, "--split-factor", 1, kMaxSplitFactor));
}

/// Instantiates an edge partitioner honouring --split-factor, exiting
/// loudly when a factor > 1 is requested for a partitioner without a
/// streaming core to shard.
std::unique_ptr<EdgePartitioner> MakeEdgePartitionerOrDie(
    EdgePartitionerId id, int split_factor) {
  std::unique_ptr<EdgePartitioner> partitioner =
      MakeEdgePartitioner(id, split_factor);
  if (partitioner == nullptr) {
    std::cerr << "error: --split-factor > 1 requires a streaming partitioner "
                 "(HDRF, 2PS-L, HEP10, HEP100); "
              << MakeEdgePartitioner(id)->name() << " has no streaming core\n";
    std::exit(2);
  }
  return partitioner;
}

/// A partitioner named on the command line.
struct PartitionerChoice {
  bool vertex_mode = false;
  EdgePartitionerId edge{};
  VertexPartitionerId vertex{};
  /// The name as given, without a vertex partitioner's 'v' prefix.
  std::string lookup;
};

/// Resolves a partitioner name: an edge (vertex-cut) partitioner by its
/// registry name, else a vertex partitioner by its name with an optional
/// 'v' prefix (vRandom is the vertex Random, Random the edge one).
/// `split_merge` marks an explicit split-merge request, which exits 2 when
/// the name is not an edge partitioner.
Result<PartitionerChoice> ResolvePartitioner(const std::string& name,
                                             bool split_merge) {
  PartitionerChoice choice;
  choice.lookup = name;
  if (Result<EdgePartitionerId> id = ParseEdgePartitionerName(name); id.ok()) {
    choice.edge = *id;
    return choice;
  }
  if (split_merge) {
    std::cerr << "error: --split-factor applies to edge (vertex-cut) "
                 "streaming partitioners only\n";
    std::exit(2);
  }
  if (!name.empty() && name[0] == 'v') choice.lookup = name.substr(1);
  Result<VertexPartitionerId> id = ParseVertexPartitionerName(choice.lookup);
  if (!id.ok()) return id.status();
  choice.vertex_mode = true;
  choice.vertex = *id;
  return choice;
}

/// Network flags shared by simulate / explain / dyn-run / serve-run. Starts
/// from the legacy fabric (NetworkConfig::FromCluster) and only overrides
/// what was passed explicitly, so the default run is byte-identical to the
/// pre-net cost model. All numeric values go through ParsePositiveInt via
/// FlagValue (loud exit 2 on garbage).
net::NetworkConfig ParseNetworkConfig(const std::vector<std::string>& args,
                                      const ClusterSpec& cluster) {
  net::NetworkConfig cfg = net::NetworkConfig::FromCluster(cluster);
  if (HasFlag(args, "--topology")) {
    Result<net::TopologyKind> kind =
        net::ParseTopologyName(StringFlagValue(args, "--topology"));
    if (!kind.ok()) {
      std::cerr << "error: " << kind.status() << "\n";
      std::exit(2);
    }
    cfg.topology = *kind;
  }
  if (HasFlag(args, "--oversubscription")) {
    cfg.oversubscription =
        static_cast<double>(FlagValue(args, "--oversubscription", 1, 64));
  }
  if (HasFlag(args, "--rack-size")) {
    cfg.rack_size = static_cast<int>(FlagValue(args, "--rack-size", 4, 64));
  }
  if (HasFlag(args, "--nic-gbps")) {
    cfg.nic_bandwidth =
        static_cast<double>(FlagValue(args, "--nic-gbps", 1, 1000)) * 1.25e8;
  }
  return cfg;
}

/// Reads a graph file, timed as `time/load` in the --metrics-out manifest.
Result<Graph> LoadGraph(const std::string& path, bool directed) {
  obs::ScopedTimer timer("time/load");
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    return ReadBinaryGraph(path);
  }
  return ReadEdgeListFile(path, directed);
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

int CmdGenerate(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(args, {}, 3, 4);
  Result<DatasetId> id = ParseDatasetCode(pos[0]);
  if (!id.ok()) return Fail(id.status());
  const double scale = ParsePositiveDouble(pos[1].c_str());
  if (scale < 0) {
    std::cerr << "error: invalid scale '" << pos[1]
              << "' (expected a positive finite number)\n";
    return 2;
  }
  uint64_t seed = 42;
  if (pos.size() > 3) {
    const long v = ParsePositiveInt(pos[3].c_str());
    if (v < 1) {
      std::cerr << "error: invalid seed '" << pos[3]
                << "' (expected a positive integer)\n";
      return 2;
    }
    seed = static_cast<uint64_t>(v);
  }
  Result<Graph> graph = [&] {
    obs::ScopedTimer timer("time/generate");
    return MakeDataset(*id, scale, seed);
  }();
  if (!graph.ok()) return Fail(graph.status());
  const std::string& out = pos[2];
  Status st = [&] {
    obs::ScopedTimer timer("time/write");
    return (out.size() > 4 && out.substr(out.size() - 4) == ".bin")
               ? WriteBinaryGraph(*graph, out)
               : WriteEdgeListFile(*graph, out);
  }();
  if (!st.ok()) return Fail(st);
  std::cout << "wrote " << graph->name() << " |V|=" << graph->num_vertices()
            << " |E|=" << graph->num_edges() << " to " << out << "\n";
  return 0;
}

int CmdInfo(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(args, {{"--directed", false}},
                                             1, 1);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  obs::ScopedTimer timer("time/info");
  DegreeStats stats = ComputeDegreeStats(*graph);
  ComponentInfo comps = ConnectedComponents(*graph);
  std::cout << stats.ToString() << "\n"
            << "components=" << comps.num_components
            << " largest=" << comps.largest_size
            << " pseudo-diameter=" << EstimateDiameter(*graph) << "\n";
  return 0;
}

int CmdPartition(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--directed", false}, {"--seed", true}, {"--split-factor", true}}, 3,
      4);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  PartitionId k = ParseK(pos[2]);
  uint64_t seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  const int split_factor = ParseSplitFactor(args);
  std::string out = pos.size() > 3 ? pos[3] : "";

  VertexSplit split =
      VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, seed);
  Result<PartitionerChoice> choice =
      ResolvePartitioner(pos[1], split_factor > 1);
  if (!choice.ok()) return Fail(choice.status());

  WallTimer timer;
  std::vector<PartitionId> assignment;
  if (!choice->vertex_mode) {
    auto partitioner = MakeEdgePartitionerOrDie(choice->edge, split_factor);
    Result<EdgePartitioning> parts = [&] {
      obs::ScopedTimer phase("time/partition");
      return partitioner->Partition(*graph, k, seed);
    }();
    if (!parts.ok()) return Fail(parts.status());
    const double took = timer.ElapsedSeconds();
    const EdgePartitionMetrics metrics = [&] {
      obs::ScopedTimer phase("time/metrics");
      return ComputeEdgePartitionMetrics(*graph, *parts);
    }();
    std::cout << partitioner->name() << " k=" << k << " took " << took
              << " s: " << metrics.ToString() << "\n";
    assignment = parts->assignment;
  } else {
    Result<VertexPartitioning> parts = [&] {
      obs::ScopedTimer phase("time/partition");
      return MakeVertexPartitioner(choice->vertex)
          ->Partition(*graph, split, k, seed);
    }();
    if (!parts.ok()) return Fail(parts.status());
    const double took = timer.ElapsedSeconds();
    const VertexPartitionMetrics metrics = [&] {
      obs::ScopedTimer phase("time/metrics");
      return ComputeVertexPartitionMetrics(*graph, *parts, split);
    }();
    std::cout << choice->lookup << " k=" << k << " took " << took
              << " s: " << metrics.ToString() << "\n";
    assignment = parts->assignment;
  }
  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) return Fail(Status::IoError("cannot open '" + out + "'"));
    for (size_t i = 0; i < assignment.size(); ++i) {
      f << i << " " << assignment[i] << "\n";
    }
    std::cout << "wrote assignment to " << out << "\n";
  }
  return 0;
}

/// Runs one edge partitioner and verifies its output end to end: structural
/// partition validity, replica-mask consistency, and a bit-exact serial
/// recomputation of every metric the figures are built from. With an
/// explicit --split-factor the run goes through split-merge execution and
/// additionally validates the execution plan (shard coverage, sub-partition
/// ranges, merge conservation) — plus, at factor 1, serial equivalence
/// against the sequential partitioner.
int CheckOneEdgePartitioner(const Graph& graph, EdgePartitionerId id,
                            PartitionId k, uint64_t seed,
                            int split_factor = 0) {
  std::unique_ptr<EdgePartitioner> partitioner;
  Result<EdgePartitioning> parts = Status::Internal("not run");
  if (split_factor >= 1) {
    if (!SupportsSplitMerge(id)) {
      std::cerr << "error: --split-factor requires a streaming partitioner "
                   "(HDRF, 2PS-L, HEP10, HEP100); "
                << MakeEdgePartitioner(id)->name()
                << " has no streaming core\n";
      return 2;
    }
    auto sm = std::make_unique<SplitMergePartitioner>(
        MakeStreamingEdgePartitioner(id), split_factor);
    SplitMergePlan plan;
    parts = sm->PartitionWithPlan(graph, k, seed, &plan);
    if (!parts.ok()) return Fail(parts.status());
    if (Status st = check::ValidateSplitMergePlan(graph, plan, *parts);
        !st.ok()) {
      return Fail(st);
    }
    if (split_factor == 1) {
      if (Status st = check::CheckSplitMergeSerialEquivalence(
              graph, *MakeEdgePartitioner(id), k, seed, *parts);
          !st.ok()) {
        return Fail(st);
      }
    }
    std::cout << "  " << sm->name() << ": split-merge plan OK ("
              << split_factor << " shards"
              << (split_factor == 1 ? ", serial-equivalent" : "") << ")\n";
    partitioner = std::move(sm);
  } else {
    partitioner = MakeEdgePartitioner(id);
    parts = partitioner->Partition(graph, k, seed);
    if (!parts.ok()) return Fail(parts.status());
  }
  if (Status st = check::ValidateEdgePartitioning(graph, *parts); !st.ok()) {
    return Fail(st);
  }
  std::vector<uint64_t> masks = ComputeReplicaMasks(graph, *parts);
  if (Status st = check::ValidateReplicaMasks(graph, *parts, masks);
      !st.ok()) {
    return Fail(st);
  }
  EdgePartitionMetrics metrics = ComputeEdgePartitionMetrics(graph, *parts);
  if (Status st = check::CheckEdgeMetrics(graph, *parts, metrics); !st.ok()) {
    return Fail(st);
  }
  std::cout << "  " << partitioner->name() << " k=" << k
            << ": partition OK, replica masks OK, metrics bit-exact ("
            << metrics.ToString() << ")\n";
  return 0;
}

/// Vertex-partitioner counterpart of CheckOneEdgePartitioner.
int CheckOneVertexPartitioner(const Graph& graph, const VertexSplit& split,
                              VertexPartitionerId id, PartitionId k,
                              uint64_t seed) {
  auto partitioner = MakeVertexPartitioner(id);
  Result<VertexPartitioning> parts =
      partitioner->Partition(graph, split, k, seed);
  if (!parts.ok()) return Fail(parts.status());
  if (Status st = check::ValidateVertexPartitioning(graph, *parts);
      !st.ok()) {
    return Fail(st);
  }
  VertexPartitionMetrics metrics =
      ComputeVertexPartitionMetrics(graph, *parts, split);
  if (Status st = check::CheckVertexMetrics(graph, *parts, split, metrics);
      !st.ok()) {
    return Fail(st);
  }
  std::cout << "  v" << partitioner->name() << " k=" << k
            << ": partition OK, metrics bit-exact (" << metrics.ToString()
            << ")\n";
  return 0;
}

int CmdCheck(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--directed", false}, {"--seed", true}, {"--split-factor", true}}, 1,
      3);
  if (pos.size() == 2) {
    std::cerr << "error: 'check <graph> <partitioner>' also needs <k>\n";
    return Usage();
  }
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  // Everything after the load: the validators and the partitioner runs
  // they verify.
  obs::ScopedTimer timer("time/check");
  if (Status st = check::ValidateGraph(*graph); !st.ok()) return Fail(st);
  std::cout << "graph OK: |V|=" << graph->num_vertices()
            << " |E|=" << graph->num_edges()
            << " (CSR sorted/unique/symmetric, canonical edge list)\n";
  if (pos.size() == 1) return 0;

  PartitionId k = ParseK(pos[2]);
  uint64_t seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  // 0 = flag absent (legacy path); an explicit --split-factor N (N >= 1)
  // routes the run through split-merge execution and its plan validators.
  const int split_factor =
      HasFlag(args, "--split-factor") ? ParseSplitFactor(args) : 0;
  VertexSplit split =
      VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, seed);
  const std::string& name = pos[1];

  if (name == "all") {
    for (EdgePartitionerId id : AllEdgePartitioners()) {
      // Split-merge applies to the streaming partitioners only; under
      // 'all', check the others on their legacy path.
      const int sf =
          split_factor >= 1 && SupportsSplitMerge(id) ? split_factor : 0;
      if (int rc = CheckOneEdgePartitioner(*graph, id, k, seed, sf);
          rc != 0) {
        return rc;
      }
    }
    for (VertexPartitionerId id : AllVertexPartitioners()) {
      if (int rc = CheckOneVertexPartitioner(*graph, split, id, k, seed);
          rc != 0) {
        return rc;
      }
    }
    std::cout << "all " << AllEdgePartitioners().size() << "+"
              << AllVertexPartitioners().size() << " partitioners verified\n";
    return 0;
  }

  Result<PartitionerChoice> choice =
      ResolvePartitioner(name, split_factor >= 1);
  if (!choice.ok()) return Fail(choice.status());
  if (!choice->vertex_mode) {
    return CheckOneEdgePartitioner(*graph, choice->edge, k, seed,
                                   split_factor);
  }
  return CheckOneVertexPartitioner(*graph, split, choice->vertex, k, seed);
}

/// Shared tail of the two `explain` entry points: the overlap replay of
/// every training epoch, re-derived serially (pure on the log, so a replay
/// checks it too) and recorded in the manifest; attribution, the optional
/// --baseline diff, the tables. Timed as `time/explain` in the
/// --metrics-out manifest.
int FinishExplain(const obs::EventLog& log,
                  const std::vector<std::string>& args) {
  obs::ScopedTimer timer("time/explain");
  for (const obs::EpochEvents& ep : log.epochs()) {
    if (ep.sim == "serve") continue;
    const net::OverlapReport overlap = net::ComputeOverlap(ep);
    if (Status st = check::ValidateOverlapReport(ep, overlap); !st.ok()) {
      return Fail(st);
    }
    net::RecordOverlapMetrics(overlap);
  }
  Result<trace::ExplainReport> rep = trace::ComputeExplain(log);
  if (!rep.ok()) return Fail(rep.status());
  const size_t top = static_cast<size_t>(FlagValue(args, "--top", 5));
  trace::ExplainReport baseline_rep;
  const trace::ExplainReport* baseline = nullptr;
  const std::string baseline_path = StringFlagValue(args, "--baseline");
  if (!baseline_path.empty()) {
    Result<obs::EventLog> blog = obs::LoadEventsFile(baseline_path);
    if (!blog.ok()) return Fail(blog.status());
    Result<trace::ExplainReport> brep = trace::ComputeExplain(*blog);
    if (!brep.ok()) return Fail(brep.status());
    baseline_rep = *brep;
    baseline = &baseline_rep;
  }
  trace::PrintExplain(std::cout, log, *rep, baseline, top);
  return 0;
}

/// Reads and validates a saved event log, timed as `time/load` in the
/// --metrics-out manifest.
Result<obs::EventLog> LoadEventLog(const std::string& path) {
  obs::ScopedTimer timer("time/load");
  Result<obs::EventLog> log = obs::LoadEventsFile(path);
  if (log.ok()) GNNPART_RETURN_NOT_OK(check::ValidateEventLog(*log));
  return log;
}

/// `explain <events.jsonl>`: attribution straight from a saved event log,
/// no simulation. The file's %.17g doubles parse back bit-equal, so the
/// report reproduces the in-process tables of the run that wrote it.
int ExplainFromFile(const std::string& path,
                    const std::vector<std::string>& args) {
  Result<obs::EventLog> log = LoadEventLog(path);
  if (!log.ok()) return Fail(log.status());
  return FinishExplain(*log, args);
}

/// Checks a collected event log (well-formed, attribution closing the
/// component-sum identity) and, when `path` is set, writes it and prints
/// the "events:" summary line. The meta pairs deliberately exclude
/// anything thread- or machine-dependent: the file is byte-identical for
/// every --threads N.
Status CheckAndWriteEvents(const obs::EventLog& log, const std::string& path,
                           const std::string& graph,
                           const std::string& partitioner, PartitionId k,
                           uint64_t seed) {
  GNNPART_RETURN_NOT_OK(check::ValidateEventLog(log));
  GNNPART_RETURN_NOT_OK(check::CheckEventAttribution(log));
  if (path.empty()) return Status::Ok();
  GNNPART_RETURN_NOT_OK(obs::WriteEventsFile(log, path,
                                             {{"tool", "gnnpart_cli"},
                                              {"graph", graph},
                                              {"partitioner", partitioner},
                                              {"k", std::to_string(k)},
                                              {"seed", std::to_string(seed)}}));
  size_t records = log.run_events().size();
  for (const obs::EpochEvents& ep : log.epochs()) records += ep.events.size();
  std::cout << "events: " << path << " (" << records << " records, "
            << log.links().size() << " links, " << log.epochs().size()
            << " epoch(s))\n";
  return Status::Ok();
}

/// Number of span records in one epoch of the event log.
size_t SpanCount(const obs::EpochEvents& epoch) {
  size_t spans = 0;
  for (const obs::Event& e : epoch.events) {
    spans += e.kind == obs::Event::Kind::kSpan;
  }
  return spans;
}

/// Shared pipeline of `simulate` and `explain`: load, partition (timed as
/// `time/partition` in the --metrics-out manifest), simulate one epoch —
/// with an event log attached when the trace file, the event file or the
/// explain report asks for one. In a paranoid-check build the graph and
/// the partitioning are fully validated between the partition and simulate
/// stages. With a log attached, the trace/report invariant (per-step phase
/// maxima must reproduce the report's phase seconds bit-exactly), the log's
/// shape and its attribution identity are verified before anything is
/// written; explain additionally verifies flow conservation and the
/// overlap report's serial re-derivation.
int RunSimulation(const std::vector<std::string>& args, bool explain) {
  std::vector<FlagSpec> flags = {{"--feature", true},
                                 {"--hidden", true},
                                 {"--layers", true},
                                 {"--gbs", true},
                                 {"--directed", false},
                                 {"--seed", true},
                                 {"--trace-out", true},
                                 {"--events-out", true},
                                 {"--topology", true},
                                 {"--oversubscription", true},
                                 {"--rack-size", true},
                                 {"--nic-gbps", true},
                                 {"--split-factor", true}};
  if (explain) {
    flags.push_back({"--baseline", true});
    flags.push_back({"--top", true});
  }
  // `explain` alone also accepts a single saved event file in place of
  // the graph/partitioner/k triple; two positionals are still a usage
  // error.
  std::vector<std::string> pos = Positionals(args, flags, explain ? 1 : 3, 3);
  if (explain && pos.size() == 1) return ExplainFromFile(pos[0], args);
  if (pos.size() != 3) return Usage();
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  if constexpr (check::ParanoidEnabled()) {
    if (Status st = check::ValidateGraph(*graph); !st.ok()) return Fail(st);
  }
  PartitionId k = ParseK(pos[2]);
  uint64_t seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  GnnConfig config;
  config.feature_size = static_cast<size_t>(FlagValue(args, "--feature", 64));
  config.hidden_dim = static_cast<size_t>(FlagValue(args, "--hidden", 64));
  config.num_layers = static_cast<int>(FlagValue(args, "--layers", 3));
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(config.num_layers);
  size_t gbs = static_cast<size_t>(FlagValue(args, "--gbs", 256));
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(k);
  std::string name = pos[1];
  const std::string trace_out = StringFlagValue(args, "--trace-out");
  const std::string events_out = StringFlagValue(args, "--events-out");
  const net::NetworkConfig netcfg = ParseNetworkConfig(args, cluster);
  const net::Fabric fabric(netcfg, static_cast<int>(k));
  net::LinkUsage usage;
  // Every trace view reads the event log; a null log costs the simulators
  // nothing.
  obs::EventLog event_log;
  obs::EventLog* events =
      (explain || !trace_out.empty() || !events_out.empty()) ? &event_log
                                                             : nullptr;

  const int split_factor = ParseSplitFactor(args);
  Result<PartitionerChoice> choice =
      ResolvePartitioner(name, split_factor > 1);
  if (!choice.ok()) return Fail(choice.status());
  if (!choice->vertex_mode) {
    auto partitioner = MakeEdgePartitionerOrDie(choice->edge, split_factor);
    Result<EdgePartitioning> parts = [&] {
      obs::ScopedTimer timer("time/partition");
      return partitioner->Partition(*graph, k, seed);
    }();
    if (!parts.ok()) return Fail(parts.status());
    if constexpr (check::ParanoidEnabled()) {
      if (Status st = check::ValidateEdgePartitioning(*graph, *parts);
          !st.ok()) {
        return Fail(st);
      }
    }
    DistGnnEpochReport r = [&] {
      obs::ScopedTimer timer("time/simulate");
      return SimulateDistGnnEpoch(BuildDistGnnWorkload(*graph, *parts),
                                  config, cluster, &fabric, &usage, events);
    }();
    std::cout << "full-batch epoch " << r.epoch_seconds * 1e3 << " ms"
              << " (fwd " << r.forward_seconds * 1e3 << ", bwd "
              << r.backward_seconds * 1e3 << "), network "
              << r.total_network_bytes / 1e6 << " MB, peak memory "
              << r.max_memory_bytes / 1e6 << " MB"
              << (r.out_of_memory ? " (OOM!)" : "") << "\n";
    if (events != nullptr) {
      if (Status st = check::CheckTraceReconstructsReport(
              event_log.epochs().back(), r);
          !st.ok()) {
        return Fail(st);
      }
    }
  } else {
    VertexSplit split =
        VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, seed);
    Result<VertexPartitioning> parts = [&] {
      obs::ScopedTimer timer("time/partition");
      return MakeVertexPartitioner(choice->vertex)
          ->Partition(*graph, split, k, seed);
    }();
    if (!parts.ok()) return Fail(parts.status());
    if constexpr (check::ParanoidEnabled()) {
      if (Status st = check::ValidateVertexPartitioning(*graph, *parts);
          !st.ok()) {
        return Fail(st);
      }
    }
    Result<DistDglEpochProfile> profile =
        ProfileDistDglEpoch(*graph, *parts, split, config.fanouts, gbs, seed);
    if (!profile.ok()) return Fail(profile.status());
    if constexpr (check::ParanoidEnabled()) {
      if (Status st = check::ValidateProfile(*profile); !st.ok()) {
        return Fail(st);
      }
    }
    DistDglEpochReport r = [&] {
      obs::ScopedTimer timer("time/simulate");
      return SimulateDistDglEpoch(*profile, config, cluster, &fabric, &usage,
                                  events);
    }();
    std::cout << "mini-batch epoch " << r.epoch_seconds * 1e3
              << " ms (sampling " << r.sampling_seconds * 1e3 << ", fetch "
              << r.feature_seconds * 1e3 << ", fwd " << r.forward_seconds * 1e3
              << ", bwd " << r.backward_seconds * 1e3 << "), remote vertices "
              << r.remote_input_vertices << ", network "
              << r.total_network_bytes / 1e6 << " MB\n";
    if (events != nullptr) {
      if (Status st = check::CheckTraceReconstructsReport(
              event_log.epochs().back(), r);
          !st.ok()) {
        return Fail(st);
      }
    }
  }

  if (events == nullptr) return 0;
  if (Status st = CheckAndWriteEvents(event_log, events_out, pos[0], name, k,
                                      seed);
      !st.ok()) {
    return Fail(st);
  }
  const obs::EpochEvents& epoch = event_log.epochs().back();
  if (!trace_out.empty()) {
    Status st = trace::WriteTraceFile(epoch, trace_out);
    if (!st.ok()) return Fail(st);
    std::cout << "trace: " << trace_out << " (" << SpanCount(epoch)
              << " spans, " << epoch.steps << " steps, " << epoch.workers
              << " workers)\n";
  }
  if (!explain) return 0;
  if (Status st = check::ValidateFlowConservation(fabric, usage); !st.ok()) {
    return Fail(st);
  }
  net::RecordUsageMetrics(fabric, usage);
  std::cout << "network: " << netcfg.Summary() << "\n";
  return FinishExplain(event_log, args);
}

/// Dynamic-graph run (DESIGN.md §12): grow the graph in deterministic
/// batches, incrementally assign arrivals, repartition when a trigger
/// fires, price the migration diff through the fabric, and simulate
/// training epochs per interval. Prints one row per interval plus the
/// cumulative decayed-quality-vs-migration summary. With
/// --growth-batches 0 and both triggers off, the epoch report is
/// bit-identical to the static 'simulate' pipeline.
int CmdDynRun(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--growth-batches", true},
       {"--initial-fraction", true},
       {"--epochs-per-batch", true},
       {"--repartition-every", true},
       {"--rf-threshold", true},
       {"--migration-penalty", true},
       {"--feature", true},
       {"--hidden", true},
       {"--layers", true},
       {"--gbs", true},
       {"--directed", false},
       {"--seed", true},
       {"--trace-out", true},
       {"--events-out", true},
       {"--topology", true},
       {"--oversubscription", true},
       {"--rack-size", true},
       {"--nic-gbps", true}},
      3, 3);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  PartitionId k = ParseK(pos[2]);

  Result<PartitionerChoice> choice = ResolvePartitioner(pos[1], false);
  if (!choice.ok()) return Fail(choice.status());
  dyn::DynPartitionerSpec spec;
  spec.vertex_mode = choice->vertex_mode;
  spec.edge = choice->edge;
  spec.vertex = choice->vertex;
  spec.display = choice->vertex_mode
                     ? "v" + MakeVertexPartitioner(choice->vertex)->name()
                     : MakeEdgePartitioner(choice->edge)->name();

  dyn::DynConfig config;
  config.growth_batches = static_cast<size_t>(
      NonNegativeFlagValue(args, "--growth-batches", 8, 4096));
  // The percentage flags are genuinely fractional (e.g. --rf-threshold
  // 2.5) and go through the shared ParsePositiveDouble path.
  config.initial_fraction =
      DoubleFlagValue(args, "--initial-fraction", 50.0, 100.0) / 100.0;
  config.epochs_per_batch =
      static_cast<size_t>(FlagValue(args, "--epochs-per-batch", 1, 1024));
  config.repartition_every = static_cast<size_t>(
      NonNegativeFlagValue(args, "--repartition-every", 0, 4096));
  config.quality_threshold =
      NonNegativeDoubleFlagValue(args, "--rf-threshold", 0.0, 10000.0) / 100.0;
  config.stay_bonus =
      NonNegativeDoubleFlagValue(args, "--migration-penalty", 50.0,
                                 1000000.0) /
      100.0;
  config.gnn.feature_size =
      static_cast<size_t>(FlagValue(args, "--feature", 64));
  config.gnn.hidden_dim = static_cast<size_t>(FlagValue(args, "--hidden", 64));
  config.gnn.num_layers = static_cast<int>(FlagValue(args, "--layers", 3));
  config.gnn.num_classes = 16;
  config.gnn.fanouts = GnnConfig::DefaultFanouts(config.gnn.num_layers);
  config.gnn.global_batch_size =
      static_cast<size_t>(FlagValue(args, "--gbs", 256));
  config.seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  config.cluster.num_machines = static_cast<int>(k);
  config.network = ParseNetworkConfig(args, config.cluster);
  config.metrics_prefix = "dyn/" + spec.display;

  const std::string trace_out = StringFlagValue(args, "--trace-out");
  const std::string events_out = StringFlagValue(args, "--events-out");
  // The trace file exports the final batch's epoch of the event log.
  obs::EventLog event_log;
  obs::EventLog* events =
      (trace_out.empty() && events_out.empty()) ? nullptr : &event_log;

  Result<dyn::DynReport> report = [&] {
    obs::ScopedTimer timer("time/dyn");
    return dyn::RunDynamic(*graph, spec, k, config, events);
  }();
  if (!report.ok()) return Fail(report.status());

  TablePrinter table({"batch", "edges", "vertices",
                      spec.vertex_mode ? "cut" : "rf", "balance", "repart",
                      "moved", "migr MB", "migr ms", "epoch ms"});
  for (const dyn::DynInterval& iv : report->intervals) {
    table.AddRow({std::to_string(iv.batch), std::to_string(iv.arrived_edges),
                  std::to_string(iv.arrived_vertices),
                  TablePrinter::Fmt(iv.quality, 4),
                  TablePrinter::Fmt(iv.balance, 4),
                  iv.repartitioned ? "yes" : "-",
                  std::to_string(iv.moved_entities),
                  TablePrinter::Fmt(iv.migration_bytes / 1e6, 3),
                  TablePrinter::Fmt(iv.migration_seconds * 1e3, 3),
                  TablePrinter::Fmt(iv.epoch_seconds * 1e3, 3)});
  }
  table.Print(std::cout);
  std::cout << spec.display << " k=" << k << ": " << report->repartitions
            << " repartitions, moved " << report->total_moved_entities
            << " entities (+" << report->total_replicas_created
            << " replicas), migration "
            << report->total_migration_bytes / 1e6 << " MB / "
            << report->total_migration_seconds * 1e3 << " ms, epochs "
            << report->total_epoch_seconds * 1e3 << " ms, total cost "
            << report->total_cost_seconds * 1e3 << " ms, final "
            << (spec.vertex_mode ? "cut " : "rf ")
            << TablePrinter::Fmt(report->final_quality, 4) << "\n";

  if (events != nullptr) {
    if (Status st = CheckAndWriteEvents(event_log, events_out, pos[0],
                                        spec.display, k, config.seed);
        !st.ok()) {
      return Fail(st);
    }
  }
  if (!trace_out.empty()) {
    const obs::EpochEvents& epoch = event_log.epochs().back();
    Status st = trace::WriteTraceFile(epoch, trace_out);
    if (!st.ok()) return Fail(st);
    std::cout << "trace: " << trace_out << " (" << SpanCount(epoch)
              << " spans)\n";
  }
  return 0;
}

/// Multi-tenant inference serving run (DESIGN.md §15): generate an
/// open-loop request trace, batch per partition, price sampling RPCs and
/// feature fetches as weighted flows on the shared fabric — optionally
/// against a co-tenant training epoch replay — and report tail latency
/// with a queue/compute/network/congestion breakdown. Every printed number
/// is simulated and byte-identical for every --threads N.
int CmdServeRun(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--arrival-rate", true},
       {"--duration", true},
       {"--batch-size", true},
       {"--batch-wait", true},
       {"--serve-weight", true},
       {"--cotenant", false},
       {"--feature", true},
       {"--hidden", true},
       {"--layers", true},
       {"--gbs", true},
       {"--directed", false},
       {"--seed", true},
       {"--events-out", true},
       {"--topology", true},
       {"--oversubscription", true},
       {"--rack-size", true},
       {"--nic-gbps", true}},
      3, 3);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  PartitionId k = ParseK(pos[2]);
  const std::string& name = pos[1];

  serve::ServeConfig config;
  config.workload.arrival_rate =
      DoubleFlagValue(args, "--arrival-rate", 200.0, 1e9);
  config.workload.duration = DoubleFlagValue(args, "--duration", 1.0, 1e6);
  config.batch.max_batch =
      static_cast<size_t>(FlagValue(args, "--batch-size", 8, 1 << 20));
  config.batch.max_wait =
      NonNegativeDoubleFlagValue(args, "--batch-wait", 0.002, 3600.0);
  config.serve_weight = DoubleFlagValue(args, "--serve-weight", 4.0, 1024.0);
  config.cotenant = HasFlag(args, "--cotenant");
  config.seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  config.workload.seed = config.seed;
  config.gnn.feature_size =
      static_cast<size_t>(FlagValue(args, "--feature", 64));
  config.gnn.hidden_dim = static_cast<size_t>(FlagValue(args, "--hidden", 64));
  config.gnn.num_layers = static_cast<int>(FlagValue(args, "--layers", 3));
  config.gnn.num_classes = 16;
  config.gnn.fanouts = GnnConfig::DefaultFanouts(config.gnn.num_layers);
  config.gnn.global_batch_size =
      static_cast<size_t>(FlagValue(args, "--gbs", 256));
  config.cluster.num_machines = static_cast<int>(k);
  config.network = ParseNetworkConfig(args, config.cluster);
  config.metrics_prefix = "serve/" + name;

  // Vertex partitioners own vertices directly; edge (vertex-cut)
  // partitioners serve each vertex from the partition holding most of its
  // incident edges (DeriveVertexOwnership), so all 12 compare on the same
  // footing.
  VertexPartitioning owners;
  uint64_t part_seed = config.seed;
  Result<PartitionerChoice> choice = ResolvePartitioner(name, false);
  if (!choice.ok()) return Fail(choice.status());
  if (!choice->vertex_mode) {
    Result<EdgePartitioning> parts =
        MakeEdgePartitioner(choice->edge)->Partition(*graph, k, part_seed);
    if (!parts.ok()) return Fail(parts.status());
    owners = serve::DeriveVertexOwnership(*graph, *parts);
  } else {
    VertexSplit split =
        VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, part_seed);
    Result<VertexPartitioning> parts = MakeVertexPartitioner(choice->vertex)
                                           ->Partition(*graph, split, k,
                                                       part_seed);
    if (!parts.ok()) return Fail(parts.status());
    owners = std::move(*parts);
  }

  const std::string events_out = StringFlagValue(args, "--events-out");
  obs::EventLog event_log;
  obs::EventLog* events = events_out.empty() ? nullptr : &event_log;
  Result<serve::ServeReport> report = [&] {
    obs::ScopedTimer timer("time/serve");
    return serve::RunServe(*graph, owners, config, events);
  }();
  if (!report.ok()) {
    // A serving window RunServe refuses (non-finite, or more requests than
    // a batch's 32-bit indices reach) is a bad flag value: exit 2.
    if (report.status().code() == StatusCode::kInvalidArgument) {
      std::cerr << "error: " << report.status() << "\n";
      return 2;
    }
    return Fail(report.status());
  }

  std::cout << name << " k=" << k << ": " << report->requests
            << " requests in " << report->batches << " batches (mean "
            << TablePrinter::Fmt(report->mean_batch_size, 2) << "/batch)"
            << (config.cotenant
                    ? ", co-tenant " + std::to_string(report->cotenant_steps) +
                          " training steps"
                    : std::string())
            << "\n";
  std::cout << "latency ms: p50 " << TablePrinter::Fmt(report->latency.p50 * 1e3, 3)
            << "  p95 " << TablePrinter::Fmt(report->latency.p95 * 1e3, 3)
            << "  p99 " << TablePrinter::Fmt(report->latency.p99 * 1e3, 3)
            << "  max " << TablePrinter::Fmt(report->latency.max * 1e3, 3)
            << "  mean " << TablePrinter::Fmt(report->latency.mean * 1e3, 3)
            << "\n";
  std::cout << "breakdown s: queue "
            << TablePrinter::Fmt(report->queue_seconds, 4) << "  compute "
            << TablePrinter::Fmt(report->compute_seconds, 4) << "  network "
            << TablePrinter::Fmt(report->network_seconds, 4) << "  congestion "
            << TablePrinter::Fmt(report->congestion_seconds, 4) << "  bytes "
            << TablePrinter::Fmt(report->network_bytes / 1e6, 3) << " MB\n";

  if (events != nullptr) {
    if (Status st = CheckAndWriteEvents(event_log, events_out, pos[0], name,
                                        k, config.seed);
        !st.ok()) {
      return Fail(st);
    }
  }
  return 0;
}

/// Pretty-prints a run manifest written by --metrics-out. Parsing goes
/// through the strict loader, so this doubles as a manifest validator.
int CmdMetrics(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(args, {}, 1, 1);
  Result<obs::Manifest> manifest = obs::LoadManifestFile(pos[0]);
  if (!manifest.ok()) return Fail(manifest.status());
  for (const auto& [key, value] : manifest->meta) {
    std::cout << key << "=" << value << "  ";
  }
  if (!manifest->meta.empty()) std::cout << "\n\n";
  TablePrinter table({"metric", "kind", "det", "value", "unit"});
  for (const obs::MetricRow& row : manifest->rows) {
    std::string value;
    switch (row.kind) {
      case obs::MetricKind::kCounter:
        value = std::to_string(row.value);
        break;
      case obs::MetricKind::kGauge:
        value = std::to_string(row.level);
        break;
      case obs::MetricKind::kHistogram:
        value = std::to_string(row.count) + " obs, sum " +
                std::to_string(row.sum);
        break;
      case obs::MetricKind::kTimer:
        value = TablePrinter::Fmt(row.seconds * 1e3, 3) + " ms / " +
                std::to_string(row.count);
        break;
    }
    table.AddRow({row.name, obs::MetricKindName(row.kind),
                  row.deterministic ? "yes" : "no", value, row.unit});
  }
  table.Print(std::cout);
  return 0;
}

int CmdSimulate(const std::vector<std::string>& args) {
  return RunSimulation(args, /*explain=*/false);
}

int CmdExplain(const std::vector<std::string>& args) {
  return RunSimulation(args, /*explain=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // Strip the global flags before dispatching; they may appear before or
  // after the subcommand. --threads sizes the worker pool (results do not
  // depend on the thread count); --metrics-out enables phase timing and
  // writes the run manifest at exit.
  std::string metrics_out;
  int threads = 0;
  for (size_t i = 0; i < args.size();) {
    if (args[i] == "--threads") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --threads requires a value\n";
        return Usage();
      }
      const int v = ParseThreadCount(args[i + 1].c_str());
      if (v < 1) {
        std::cerr << "error: invalid --threads value '" << args[i + 1]
                  << "' (expected a positive integer)\n";
        return Usage();
      }
      threads = v;
      SetDefaultThreads(v);
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      continue;
    }
    if (args[i] == "--metrics-out") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --metrics-out requires a value\n";
        return Usage();
      }
      metrics_out = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      continue;
    }
    ++i;
  }
  if (args.empty()) return Usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  if (!metrics_out.empty()) obs::EnableTiming(true);

  int rc;
  if (cmd == "generate") rc = CmdGenerate(args);
  else if (cmd == "info") rc = CmdInfo(args);
  else if (cmd == "partition") rc = CmdPartition(args);
  else if (cmd == "check") rc = CmdCheck(args);
  else if (cmd == "simulate") rc = CmdSimulate(args);
  else if (cmd == "explain") rc = CmdExplain(args);
  else if (cmd == "dyn-run") rc = CmdDynRun(args);
  else if (cmd == "serve-run") rc = CmdServeRun(args);
  else if (cmd == "metrics") rc = CmdMetrics(args);
  else {
    std::cerr << "error: unknown subcommand '" << cmd << "'\n";
    return Usage();
  }
  if (!metrics_out.empty()) {
    Status st = obs::WriteManifestFile(
        metrics_out,
        {{"tool", "gnnpart_cli"},
         {"command", cmd},
         {"threads", threads > 0 ? std::to_string(threads) : "auto"}});
    if (!st.ok()) return Fail(st);
    std::cerr << "[gnnpart] metrics manifest: " << metrics_out << "\n";
  }
  return rc;
}
