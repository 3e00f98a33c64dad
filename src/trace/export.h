#ifndef GNNPART_TRACE_EXPORT_H_
#define GNNPART_TRACE_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/events.h"

namespace gnnpart {
namespace trace {

/// Exporters for one simulated epoch of the event log. Both emit records in
/// log order with fixed-format numbers, so the output is byte-identical
/// whenever the log is (i.e. for every thread count).

/// Renders the epoch in Chrome's trace_event JSON format (complete "X"
/// events, timestamps in microseconds), loadable in chrome://tracing and
/// Perfetto. Spans live on process 0 ("<sim> simulated epoch", one thread
/// row per worker); the epoch's network flows on process 2 ("network
/// flows", one thread row per source worker, one complete event per flow),
/// plus flow arrows ("s"/"f" pairs on process 0) binding each comm span's
/// end to the next span of the same worker it blocks. Both processes share
/// the one simulated timeline.
std::string ChromeTraceJson(const obs::EpochEvents& epoch);

/// Flat CSV: step,worker,phase,t_begin,t_end,seconds,comm_seconds,bytes —
/// one row per span, times in (simulated) seconds with round-trip
/// precision.
std::string TraceCsv(const obs::EpochEvents& epoch);

/// Writes ChromeTraceJson / TraceCsv to `path`. The format is picked from
/// the extension: ".csv" selects CSV, anything else Chrome JSON.
Status WriteTraceFile(const obs::EpochEvents& epoch, const std::string& path);

}  // namespace trace
}  // namespace gnnpart

#endif  // GNNPART_TRACE_EXPORT_H_
