#ifndef GNNPART_TRACE_ANALYSIS_H_
#define GNNPART_TRACE_ANALYSIS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.h"

namespace gnnpart {
namespace trace {

/// Analysis passes over one simulated epoch of the event log (DESIGN.md
/// §7): per-step critical path, per-worker straggler blame, barrier wait
/// accounting, and bit-exact reconstruction of the epoch report's phase
/// totals (the invariant that ties the span timeline to the report path).
/// Every pass reads the epoch's span records in log order and skips the
/// other record kinds.
///
/// Time semantics: both simulators model BSP execution, so every worker
/// enters a phase at the same simulated instant (the step's barrier) and
/// leaves after its own duration; the barrier closes at the per-phase
/// maximum. Spans of one (step, phase) therefore share t0, and
/// `max(t0 + dur) - (t0 + dur)` is the worker's barrier wait. A span's
/// duration is the exact cost-model value — which is what makes the report
/// reconstruction bit-exact — and its timeline end is derived.

/// The phases an epoch kind ("distdgl" | "distgnn" | "serve") emits per
/// step, in execution order; empty for an unknown kind.
const std::vector<obs::Phase>& StepPhases(const std::string& sim);

/// Sums `values[0, n)` exactly the way ParallelReduce(grain) does: serial
/// partial sums per chunk, partials folded in chunk order. Reproduces the
/// simulators' floating-point phase totals bit-for-bit, which a plain
/// left-to-right sum would not (FP addition is not associative).
double ChunkedSum(const double* values, size_t n, size_t grain);

/// One (step, phase) barrier: who the straggler was and what the barrier
/// cost. `wait_seconds` is the total time the other workers idled at this
/// barrier: sum over workers of (max_seconds - own duration).
struct StepPhaseStat {
  uint32_t step = 0;
  obs::Phase phase = obs::Phase::kSampling;
  /// Worker whose duration equals the phase maximum (lowest id on ties —
  /// deterministic).
  uint32_t straggler = 0;
  double max_seconds = 0;
  double mean_seconds = 0;
  double wait_seconds = 0;
};

/// All (step, phase) barriers in execution order (step ascending, phases in
/// StepPhases() order).
std::vector<StepPhaseStat> ComputeStepPhaseStats(
    const obs::EpochEvents& epoch);

/// Per-worker blame/wait accounting over the epoch. "Blame" charges the
/// full barrier cost of a (step, phase) to its straggler: the seconds in
/// blame_seconds[phase] are seconds *everyone* spent on that phase because
/// this worker was slowest. Summing blame over workers per phase yields the
/// report's straggler-summed phase seconds (modulo summation order).
struct WorkerBlame {
  uint32_t worker = 0;
  std::array<double, obs::kNumPhases> blame_seconds{};
  /// Seconds this worker idled at each phase's barriers over the epoch.
  std::array<double, obs::kNumPhases> wait_seconds{};
  std::array<uint64_t, obs::kNumPhases> steps_blamed{};
  /// Sum of the worker's own span durations (its simulated busy time).
  double busy_seconds = 0;

  double total_blame() const;
  double total_wait() const;
  uint64_t total_steps_blamed() const;
};

std::vector<WorkerBlame> ComputeWorkerBlame(const obs::EpochEvents& epoch);

/// DistDGL phase totals recomputed from the spans with the simulator's
/// exact summation order: per-step maxima summed in chunks of the epoch
/// header's `grain` steps, the chunking of SimulateDistDglEpoch's step
/// reduction. Equal (==, not approx) to the corresponding
/// DistDglEpochReport fields.
struct DistDglPhaseSeconds {
  double sampling = 0;
  double feature = 0;
  double forward = 0;
  double backward = 0;
  double update = 0;
  double epoch = 0;
};
DistDglPhaseSeconds ReconstructDistDglReport(const obs::EpochEvents& epoch);

/// DistGNN phase totals recomputed from the spans (per-layer maxima summed
/// in ascending layer order with the simulator's grouping). Equal (==) to
/// the corresponding DistGnnEpochReport fields.
struct DistGnnPhaseSeconds {
  double forward = 0;    // fwd compute + fwd sync stragglers
  double backward = 0;   // bwd compute + bwd sync stragglers
  double sync = 0;       // 2x fwd sync straggler per layer (breakdown row)
  double optimizer = 0;
  double epoch = 0;
};
DistGnnPhaseSeconds ReconstructDistGnnReport(const obs::EpochEvents& epoch);

}  // namespace trace
}  // namespace gnnpart

#endif  // GNNPART_TRACE_ANALYSIS_H_
