#include "trace/report.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace gnnpart {
namespace trace {
namespace {

using obs::Phase;
using obs::PhaseName;

std::string Ms(double seconds, int precision = 3) {
  return TablePrinter::Fmt(seconds * 1e3, precision);
}

}  // namespace

TablePrinter BlameTable(const obs::EpochEvents& epoch) {
  const std::vector<Phase>& phases = StepPhases(epoch.sim);
  std::vector<std::string> header{"worker"};
  for (Phase p : phases) header.push_back(std::string(PhaseName(p)) + " ms");
  header.push_back("blame ms");
  header.push_back("barriers");
  header.push_back("wait ms");
  header.push_back("busy ms");
  TablePrinter table(std::move(header));

  for (const WorkerBlame& wb : ComputeWorkerBlame(epoch)) {
    std::vector<std::string> row{std::to_string(wb.worker)};
    for (Phase p : phases) {
      row.push_back(Ms(wb.blame_seconds[static_cast<size_t>(p)]));
    }
    row.push_back(Ms(wb.total_blame()));
    row.push_back(std::to_string(wb.total_steps_blamed()));
    row.push_back(Ms(wb.total_wait()));
    row.push_back(Ms(wb.busy_seconds));
    table.AddRow(std::move(row));
  }
  return table;
}

TablePrinter CriticalPathTable(const obs::EpochEvents& epoch) {
  TablePrinter table({"phase", "total ms", "mean step ms", "max step ms",
                      "wait ms", "top straggler"});
  const std::vector<StepPhaseStat> stats = ComputeStepPhaseStats(epoch);
  const std::vector<WorkerBlame> blame = ComputeWorkerBlame(epoch);
  for (Phase phase : StepPhases(epoch.sim)) {
    double total = 0, max_step = 0, wait = 0;
    size_t steps = 0;
    for (const StepPhaseStat& st : stats) {
      if (st.phase != phase) continue;
      total += st.max_seconds;
      max_step = std::max(max_step, st.max_seconds);
      wait += st.wait_seconds;
      ++steps;
    }
    if (steps == 0) continue;
    // Worker carrying the most blame for this phase (lowest id on ties).
    uint32_t top = 0;
    double top_blame = -1;
    for (const WorkerBlame& wb : blame) {
      const double b = wb.blame_seconds[static_cast<size_t>(phase)];
      if (b > top_blame) {
        top_blame = b;
        top = wb.worker;
      }
    }
    table.AddRow({PhaseName(phase), Ms(total),
                  Ms(total / static_cast<double>(steps)), Ms(max_step),
                  Ms(wait),
                  "w" + std::to_string(top) + " (" + Ms(top_blame) + " ms)"});
  }
  return table;
}

TablePrinter TopStepsTable(const obs::EpochEvents& epoch, size_t max_steps) {
  struct StepRow {
    uint32_t step = 0;
    double cost = 0;
    double wait = 0;
    Phase dominant = Phase::kSampling;
    double dominant_cost = -1;
    std::map<uint32_t, double> blame;  // worker -> blamed seconds
  };
  std::map<uint32_t, StepRow> by_step;
  for (const StepPhaseStat& st : ComputeStepPhaseStats(epoch)) {
    StepRow& row = by_step[st.step];
    row.step = st.step;
    row.cost += st.max_seconds;
    row.wait += st.wait_seconds;
    row.blame[st.straggler] += st.max_seconds;
    if (st.max_seconds > row.dominant_cost) {
      row.dominant_cost = st.max_seconds;
      row.dominant = st.phase;
    }
  }
  std::vector<StepRow> rows;
  rows.reserve(by_step.size());
  for (auto& [step, row] : by_step) rows.push_back(std::move(row));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const StepRow& a, const StepRow& b) {
                     if (a.cost != b.cost) return a.cost > b.cost;
                     return a.step < b.step;
                   });
  if (rows.size() > max_steps) rows.resize(max_steps);

  TablePrinter table(
      {"step", "step ms", "wait ms", "critical worker", "dominant phase"});
  for (const StepRow& row : rows) {
    uint32_t critical = 0;
    double critical_blame = -1;
    for (const auto& [worker, seconds] : row.blame) {
      if (seconds > critical_blame) {
        critical_blame = seconds;
        critical = worker;
      }
    }
    table.AddRow({std::to_string(row.step), Ms(row.cost), Ms(row.wait),
                  "w" + std::to_string(critical) + " (" + Ms(critical_blame) +
                      " ms)",
                  PhaseName(row.dominant)});
  }
  return table;
}

}  // namespace trace
}  // namespace gnnpart
