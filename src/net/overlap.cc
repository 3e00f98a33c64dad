#include "net/overlap.h"

#include <algorithm>
#include <array>

#include "check/check.h"

namespace gnnpart {
namespace net {

OverlapReport ComputeOverlap(const obs::EpochEvents& epoch) {
  OverlapReport report;
  const size_t steps = epoch.steps;
  const size_t workers = epoch.workers;
  report.worker_pipelined_blame.assign(workers, 0.0);
  report.worker_comm_seconds.assign(workers, 0.0);
  report.worker_compute_seconds.assign(workers, 0.0);
  if (steps == 0 || workers == 0) return report;

  // Per (step, worker): compute and comm sums; per (step, phase): the BSP
  // barrier maximum. Accumulation follows log order, which is canonical
  // (serial emission), so the sums are deterministic.
  std::vector<double> compute(steps * workers, 0.0);
  std::vector<double> comm(steps * workers, 0.0);
  std::vector<std::array<double, obs::kNumPhases>> phase_max(
      steps, std::array<double, obs::kNumPhases>{});
  for (const obs::Event& span : epoch.events) {
    if (span.kind != obs::Event::Kind::kSpan) continue;
    GNNPART_CHECK_CHEAP(span.comm >= 0 && span.comm <= span.dur,
                        "net/overlap: span comm share outside [0, seconds]");
    GNNPART_CHECK_CHEAP(span.step < steps && span.src >= 0 &&
                            static_cast<size_t>(span.src) < workers,
                        "net/overlap: span outside the epoch shape");
    const size_t worker = static_cast<size_t>(span.src);
    const size_t cell = static_cast<size_t>(span.step) * workers + worker;
    compute[cell] += span.dur - span.comm;
    comm[cell] += span.comm;
    double& slot = phase_max[span.step][static_cast<size_t>(span.phase)];
    slot = std::max(slot, span.dur);
    report.worker_comm_seconds[worker] += span.comm;
    report.worker_compute_seconds[worker] += span.dur - span.comm;
  }

  report.steps.reserve(steps);
  for (size_t s = 0; s < steps; ++s) {
    StepOverlap step;
    step.step = static_cast<uint32_t>(s);
    for (int p = 0; p < obs::kNumPhases; ++p) {
      step.bsp_seconds += phase_max[s][static_cast<size_t>(p)];
    }
    for (size_t w = 0; w < workers; ++w) {
      const size_t cell = s * workers + w;
      const double cost = std::max(compute[cell], comm[cell]);
      if (cost > step.pipelined_seconds) {
        step.pipelined_seconds = cost;
        step.straggler = static_cast<uint32_t>(w);
        step.comm_bound = comm[cell] >= compute[cell];
      }
    }
    report.bsp_epoch_seconds += step.bsp_seconds;
    report.pipelined_epoch_seconds += step.pipelined_seconds;
    report.worker_pipelined_blame[step.straggler] += step.pipelined_seconds;
    report.steps.push_back(step);
  }
  report.hidden_seconds =
      report.bsp_epoch_seconds - report.pipelined_epoch_seconds;
  return report;
}

}  // namespace net
}  // namespace gnnpart
