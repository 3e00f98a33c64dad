#ifndef GNNPART_BENCH_BENCH_UTIL_H_
#define GNNPART_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/events.h"
#include "trace/export.h"

namespace gnnpart {
namespace bench {

/// Base path given via `--trace-out FILE`; empty when tracing is off.
/// Per-simulation files derive from it via MaybeWriteTrace.
inline std::string& TraceOutBase() {
  static std::string path;
  return path;
}

/// Manifest path given via `--metrics-out FILE` or GNNPART_METRICS_OUT;
/// empty when metrics export is off. The manifest is written by an atexit
/// hook registered in DefaultContext.
inline std::string& MetricsOutPath() {
  static std::string path;
  return path;
}

/// Tool name recorded in the manifest meta line (argv[0] basename).
inline std::string& MetricsToolName() {
  static std::string name = "bench";
  return name;
}

inline void WriteMetricsManifestAtExit() {
  const Status status = obs::WriteManifestFile(
      MetricsOutPath(),
      {{"tool", MetricsToolName()},
       {"scale", std::to_string(ExperimentContext::FromEnv().scale)},
       {"seed", std::to_string(ExperimentContext::FromEnv().seed)},
       {"threads", std::to_string(DefaultThreads())}});
  if (status.ok()) {
    std::fprintf(stderr, "[gnnpart] metrics manifest: %s\n",
                 MetricsOutPath().c_str());
  } else {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
}

/// Context shared by all bench binaries; honours GNNPART_SCALE,
/// GNNPART_SEED, GNNPART_GBS, GNNPART_THREADS, GNNPART_METRICS_OUT.
/// Pass (argc, argv) through to also accept `--threads N` (overrides the
/// environment; results are identical for every N), `--metrics-out FILE`
/// (JSONL run manifest written at exit) and `--trace-out FILE` (the
/// phase-time tables dump one Chrome trace per simulated cell, suffixed
/// with the cell label).
inline ExperimentContext DefaultContext(int argc = 0,
                                        char** argv = nullptr) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "FATAL: --threads requires a value\n";
        std::exit(2);
      }
      const int v = ParseThreadCount(argv[i + 1]);
      if (v < 1) {
        std::cerr << "FATAL: invalid --threads value '" << argv[i + 1]
                  << "' (expected a positive integer)\n";
        std::exit(2);
      }
      SetDefaultThreads(v);
      ++i;
    } else if (std::string(argv[i]) == "--trace-out") {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::cerr << "FATAL: --trace-out requires a file path\n";
        std::exit(2);
      }
      TraceOutBase() = argv[i + 1];
      ++i;
    } else if (std::string(argv[i]) == "--metrics-out") {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::cerr << "FATAL: --metrics-out requires a file path\n";
        std::exit(2);
      }
      MetricsOutPath() = argv[i + 1];
      ++i;
    }
  }
  if (MetricsOutPath().empty()) {
    if (const char* env = std::getenv("GNNPART_METRICS_OUT")) {
      MetricsOutPath() = env;
    }
  }
  if (!MetricsOutPath().empty()) {
    if (argv != nullptr && argc > 0) {
      std::string tool = argv[0];
      const size_t slash = tool.find_last_of('/');
      if (slash != std::string::npos) tool = tool.substr(slash + 1);
      MetricsToolName() = tool;
    }
    obs::EnableTiming(true);
    static bool registered = false;
    if (!registered) {
      registered = true;
      std::atexit(WriteMetricsManifestAtExit);
    }
  }
  return ExperimentContext::FromEnv();
}

/// Strips the DefaultContext flags (--threads/--metrics-out/--trace-out and
/// their values) from argv in place and returns the new argc. For mains
/// that hand the remaining arguments to another parser — google-benchmark
/// rejects flags it does not know — call DefaultContext(argc, argv) first,
/// then reduce argc with this before the second parser runs.
inline int StripContextFlags(int argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--metrics-out" ||
        arg == "--trace-out") {
      if (i + 1 < argc) ++i;
      continue;
    }
    argv[out++] = argv[i];
  }
  return out;
}

/// Event log to pass into a Simulate* call: the real one when `--trace-out`
/// was given, nullptr (tracing disabled, zero cost) otherwise.
inline obs::EventLog* MaybeEvents(obs::EventLog* events) {
  return TraceOutBase().empty() ? nullptr : events;
}

/// Writes the log's last epoch as <base-stem>.<label><base-ext>; no-op when
/// tracing is off. Call once per simulated cell, after Simulate*.
inline void MaybeWriteTrace(const obs::EventLog& events, std::string label) {
  const std::string& base = TraceOutBase();
  if (base.empty() || events.epochs().empty()) return;
  for (char& c : label) {
    if (c == '/' || c == ' ') c = '_';
  }
  const size_t slash = base.find_last_of('/');
  const size_t dot = base.find_last_of('.');
  std::string path;
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    path = base.substr(0, dot) + "." + label + base.substr(dot);
  } else {
    path = base + "." + label;
  }
  const Status status = trace::WriteTraceFile(events.epochs().back(), path);
  if (status.ok()) {
    std::cout << "(trace: " << path << ")\n";
  } else {
    std::cerr << "warning: " << status << "\n";
  }
}

inline void PrintBanner(const std::string& title, const std::string& ref,
                        const ExperimentContext& ctx) {
  std::cout << "==================================================\n"
            << title << "\n"
            << "Reproduces: " << ref << "\n"
            << "scale=" << ctx.scale << " seed=" << ctx.seed
            << " gbs=" << ctx.global_batch_size
            << " threads=" << DefaultThreads() << "\n"
            << "==================================================\n";
}

inline std::string F(double v, int prec = 2) {
  return TablePrinter::Fmt(v, prec);
}

/// Fails the binary loudly on a non-OK result; bench binaries have no
/// graceful degradation path.
template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    std::cerr << "FATAL: " << what << ": " << result.status() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

/// Mean DistDGL speedup vs Random over the grid entries matching `pred`.
template <typename Pred>
double MeanSpeedupWhere(const DistDglGridResult& grid,
                        const std::string& name, Pred pred) {
  const auto& random = grid.reports.at("Random");
  const auto& mine = grid.reports.at(name);
  std::vector<double> values;
  for (size_t i = 0; i < grid.grid.size(); ++i) {
    if (!pred(grid.grid[i])) continue;
    if (mine[i].epoch_seconds > 0) {
      values.push_back(random[i].epoch_seconds / mine[i].epoch_seconds);
    }
  }
  return Mean(values);
}

/// Prints the per-phase epoch breakdown row used by the phase-time figures.
inline std::vector<std::string> PhaseRow(const std::string& label,
                                         const DistDglEpochReport& r) {
  return {label,
          F(r.sampling_seconds * 1e3, 1),
          F(r.feature_seconds * 1e3, 1),
          F(r.forward_seconds * 1e3, 1),
          F(r.backward_seconds * 1e3, 1),
          F(r.update_seconds * 1e3, 2),
          F(r.epoch_seconds * 1e3, 1)};
}

}  // namespace bench
}  // namespace gnnpart

#endif  // GNNPART_BENCH_BENCH_UTIL_H_
