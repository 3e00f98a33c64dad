#ifndef GNNPART_TRACE_REPORT_H_
#define GNNPART_TRACE_REPORT_H_

#include <cstddef>

#include "common/table.h"
#include "obs/events.h"
#include "trace/analysis.h"

namespace gnnpart {
namespace trace {

/// Human-readable views of one simulated epoch's spans, rendered with the same
/// common/table printer the bench binaries use (so trace-report output can
/// be re-plotted via GNNPART_CSV_DIR-style post-processing too).

/// Per-worker straggler-blame table: one row per worker, per-phase blame
/// milliseconds (barrier time charged while this worker was the straggler),
/// total blame, number of (step, phase) barriers blamed, total barrier wait
/// and busy time. The phase columns follow StepPhases(epoch.sim).
TablePrinter BlameTable(const obs::EpochEvents& epoch);

/// Per-phase critical-path summary: straggler-summed total, mean/max step
/// cost, total barrier wait and the most-blamed worker per phase.
TablePrinter CriticalPathTable(const obs::EpochEvents& epoch);

/// The `max_steps` most expensive steps (by straggler-summed step cost):
/// step id, cost, critical worker (largest blame share within the step) and
/// the phase that dominates the step.
TablePrinter TopStepsTable(const obs::EpochEvents& epoch,
                           size_t max_steps = 10);

}  // namespace trace
}  // namespace gnnpart

#endif  // GNNPART_TRACE_REPORT_H_
