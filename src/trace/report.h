#ifndef GNNPART_TRACE_REPORT_H_
#define GNNPART_TRACE_REPORT_H_

#include <cstddef>
#include <ostream>

#include "obs/events.h"
#include "trace/explain.h"

namespace gnnpart {
namespace trace {

/// Renders the `explain` report (DESIGN.md §14) of an event log with the
/// common/table printer the bench binaries use:
///   1. the critical-path attribution (compute / wait / congestion /
///      migration), with baseline and delta columns when `baseline` is set;
///   2. the link table: bytes, busy time, utilization, contended time,
///      peak/p99 utilization and the top talkers per link;
///   3. the worker table: per-phase and total straggler blame, barriers
///      blamed, barrier wait, busy time and the pipelined blame with its
///      comm/compute split;
///   4. the per-phase critical path and the most expensive steps of the
///      log's last training epoch (the one --trace-out exports);
///   5. the "overlap: bsp ... pipelined ... hidden ..." line.
/// Every number comes from `log` and `rep` (= ComputeExplain(log)), so a
/// replayed log prints the same tables as the run that wrote it. `top`
/// bounds the ranked tables (links, workers, steps).
void PrintExplain(std::ostream& out, const obs::EventLog& log,
                  const ExplainReport& rep, const ExplainReport* baseline,
                  size_t top);

}  // namespace trace
}  // namespace gnnpart

#endif  // GNNPART_TRACE_REPORT_H_
