// Microbenchmark for the gnnpart::obs hot-path cost (the "instrumented hot
// loops cost nothing when metrics are off" claim from DESIGN.md §9):
//
//   * Counter::Add / Histogram::Observe — the per-call cost instrumented
//     code pays unconditionally (one relaxed-free thread-local array add).
//   * WallTimer eager vs. disabled — the before/after for the null-timer
//     fix: an eager WallTimer takes two clock_gettime calls per scope even
//     when nobody reads it; a disabled one takes none.
//   * ScopedTimer with timing off vs. on — what a `time/...` phase span
//     costs without and with `--metrics-out`.
//   * EventLog off vs. on — the "null EventLog* = zero cost" claim from
//     DESIGN.md §14: an emission site without an attached log pays one
//     pointer test; with it, one record append per span/flow, the phase
//     stored as its obs::Phase enum id.
//
// lint:wall-clock-ok — this benchmark measures the timer itself.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter counter = obs::GetCounter("bench/obs/counter", "ops");
  for (auto _ : state) {
    counter.Add(1);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram hist =
      obs::GetHistogram("bench/obs/hist", "ops", obs::Pow2Buckets(24));
  uint64_t v = 0;
  for (auto _ : state) {
    hist.Observe(v++ & 0xffff);
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_WallTimerEager(benchmark::State& state) {
  for (auto _ : state) {
    WallTimer timer;  // the pre-fix behavior: always reads the clock
    benchmark::DoNotOptimize(timer.ElapsedSeconds());
  }
}
BENCHMARK(BM_WallTimerEager);

void BM_WallTimerDisabled(benchmark::State& state) {
  for (auto _ : state) {
    WallTimer timer = WallTimer::Disabled();
    benchmark::DoNotOptimize(timer.ElapsedSeconds());
  }
}
BENCHMARK(BM_WallTimerDisabled);

void BM_ScopedTimerOff(benchmark::State& state) {
  obs::EnableTiming(false);
  obs::Timer timer = obs::GetTimer("bench/obs/scoped_off");
  for (auto _ : state) {
    obs::ScopedTimer scope(timer);
  }
}
BENCHMARK(BM_ScopedTimerOff);

void BM_ScopedTimerOn(benchmark::State& state) {
  obs::EnableTiming(true);
  obs::Timer timer = obs::GetTimer("bench/obs/scoped_on");
  for (auto _ : state) {
    obs::ScopedTimer scope(timer);
  }
  obs::EnableTiming(false);
}
BENCHMARK(BM_ScopedTimerOn);

void BM_EventLogOff(benchmark::State& state) {
  // The exact shape of an emission site when --events-out is absent: the
  // simulators hold a null EventLog* and every record is guarded by one
  // pointer test. DoNotOptimize keeps the compiler from deleting the
  // branch outright, matching the opaque pointer the simulators carry.
  obs::EventLog* events = nullptr;
  const obs::Phase phase = obs::Phase::kForward;
  for (auto _ : state) {
    benchmark::DoNotOptimize(events);
    if (events != nullptr) {
      events->AddSpan(0, 0, phase, 0.0, 1.0, 0.5, 64.0);
    }
  }
}
BENCHMARK(BM_EventLogOff);

void BM_EventLogSpan(benchmark::State& state) {
  obs::EventLog log;
  log.BeginEpoch("distgnn", 1, 1, 8);
  obs::EventLog* events = &log;
  const obs::Phase phase = obs::Phase::kForward;
  uint32_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(events);
    if (events != nullptr) {
      events->AddSpan(step++, 0, phase, 0.0, 1.0, 0.5, 64.0);
    }
  }
}
BENCHMARK(BM_EventLogSpan);

void BM_EventLogFlow(benchmark::State& state) {
  obs::EventLog log;
  log.BeginEpoch("distgnn", 1, 1, 8);
  obs::EventLog* events = &log;
  const obs::Phase phase = obs::Phase::kForward;
  // One flow record as net::SimulateFlows writes it, appended the way the
  // simulators append each phase's records.
  const obs::Event flow = {.kind = obs::Event::Kind::kFlow,
                           .src = 0,
                           .dst = 1,
                           .t0 = 0.0,
                           .t1 = 1.0,
                           .t1_free = 1.0,
                           .bytes = 64.0,
                           .links = {0, 1}};
  uint32_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(events);
    if (events != nullptr) events->Append({&flow, 1}, 0.5, step++, phase);
  }
}
BENCHMARK(BM_EventLogFlow);

}  // namespace
}  // namespace gnnpart

// Custom main instead of BENCHMARK_MAIN(): route the shared bench flags
// through bench::DefaultContext (validated --threads parsing, --metrics-out
// manifest hook), then strip them before google-benchmark parses the rest
// (it rejects unknown flags).
int main(int argc, char** argv) {
  gnnpart::bench::DefaultContext(argc, argv);
  argc = gnnpart::bench::StripContextFlags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
