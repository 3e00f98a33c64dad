#ifndef GNNPART_OBS_MEMORY_H_
#define GNNPART_OBS_MEMORY_H_

#include <cstdint>
#include <string_view>

/// Memory accounting (DESIGN.md §9). Two flavors:
///
///   - Analytical bytes-per-structure gauges (`mem/<structure>_bytes`):
///     exact sizes computed from container geometry (graph CSR, partitioner
///     assignment state, sampler blocks). These are
///     pure functions of the workload → deterministic, high-water (Max).
///   - Process peak RSS from the kernel (`mem/peak_rss_bytes`): inherently
///     machine- and scheduling-dependent → registered non-deterministic,
///     exempt from the byte-equality contract.
///
/// This file is the only sanctioned home for procfs reads (tools/lint.sh
/// quarantines /proc/self/* to src/obs/).
namespace gnnpart::obs {

/// Peak resident set size (VmHWM) in bytes; 0 where unsupported.
uint64_t PeakRssBytes();

/// Current resident set size (VmRSS) in bytes; 0 where unsupported.
uint64_t CurrentRssBytes();

/// Raises the high-water gauge `mem/<structure>_bytes` (deterministic,
/// analytical accounting — pass sizes computed from container geometry).
void RecordStructureBytes(std::string_view structure, uint64_t bytes);

/// Refreshes the non-deterministic `mem/peak_rss_bytes` gauge from the
/// kernel; called right before a manifest is written.
void RecordPeakRss();

}  // namespace gnnpart::obs

#endif  // GNNPART_OBS_MEMORY_H_
