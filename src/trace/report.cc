#include "trace/report.h"

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/table.h"
#include "trace/analysis.h"

namespace gnnpart {
namespace trace {
namespace {

using obs::Phase;
using obs::PhaseName;

std::string Ms(double seconds, int precision = 3) {
  return TablePrinter::Fmt(seconds * 1e3, precision);
}

/// Formats a link's top talkers as "src->dst N MB" triples; dst -1 (an
/// aggregate route fanning out to several destinations) prints as "*".
std::string FormatTalkers(const LinkContention& link, size_t top) {
  std::string out;
  for (size_t t = 0; t < link.talkers.size() && t < top; ++t) {
    const LinkContention::Talker& talker = link.talkers[t];
    if (!out.empty()) out += "; ";
    out += std::to_string(talker.src);
    out += "->";
    out += talker.dst < 0 ? std::string("*") : std::to_string(talker.dst);
    out += " ";
    out += TablePrinter::Fmt(talker.bytes / 1e6, 2);
    out += " MB";
  }
  return out;
}

void PrintAttribution(std::ostream& out, const ExplainReport& rep,
                      const ExplainReport* baseline) {
  out << "\n--- explain: critical-path attribution ---\n";
  std::vector<std::string> header = {"component", "ms", "% of total"};
  if (baseline != nullptr) {
    header.push_back("baseline ms");
    header.push_back("delta ms");
  }
  TablePrinter comp(header);
  auto row = [&](const char* name, double seconds, double base_seconds) {
    std::vector<std::string> cells = {
        name, Ms(seconds),
        TablePrinter::Fmt(
            rep.total_seconds > 0 ? 100.0 * seconds / rep.total_seconds : 0.0,
            1)};
    if (baseline != nullptr) {
      cells.push_back(Ms(base_seconds));
      cells.push_back(Ms(seconds - base_seconds));
    }
    comp.AddRow(cells);
  };
  const ExplainReport zero;
  const ExplainReport& base = baseline != nullptr ? *baseline : zero;
  row("compute", rep.compute_seconds, base.compute_seconds);
  row("wait", rep.wait_seconds, base.wait_seconds);
  // Serving runs split the wait between request queueing and uncontended
  // comm; training runs have no queueing and skip the row.
  if (rep.queue_seconds > 0 || base.queue_seconds > 0) {
    row("  of which queueing", rep.queue_seconds, base.queue_seconds);
  }
  row("congestion", rep.congestion_seconds, base.congestion_seconds);
  row("migration", rep.migration_seconds, base.migration_seconds);
  row("total", rep.total_seconds, base.total_seconds);
  comp.Print(out);
  out << "(components sum to the total bit-exactly; solved wait "
         "cross-checks against "
      << Ms(rep.uncontended_comm_seconds + rep.queue_seconds)
      << " ms of uncontended comm + queueing; " << rep.epochs.size()
      << " epoch(s))\n";
}

void PrintLinks(std::ostream& out, const ExplainReport& rep, size_t top) {
  out << "\n--- top contended links ---\n";
  TablePrinter links({"link", "MB", "busy ms", "util %", "contended ms",
                      "peak %", "p99 %", "top talkers"});
  for (size_t l = 0; l < rep.links.size() && l < top; ++l) {
    const LinkContention& link = rep.links[l];
    links.AddRow({link.name, TablePrinter::Fmt(link.bytes / 1e6, 2),
                  Ms(link.busy_seconds),
                  TablePrinter::Fmt(100.0 * link.utilization, 1),
                  Ms(link.contended_seconds),
                  TablePrinter::Fmt(100.0 * link.peak_utilization, 1),
                  TablePrinter::Fmt(100.0 * link.p99_utilization, 1),
                  FormatTalkers(link, 3)});
  }
  links.Print(out);
}

/// One row per worker, in the report's straggler ranking. The phase
/// columns are those of the log's training epochs, in obs::Phase order.
void PrintWorkers(std::ostream& out, const obs::EventLog& log,
                  const ExplainReport& rep, size_t top) {
  std::array<bool, obs::kNumPhases> seen{};
  for (const obs::EpochEvents& ep : log.epochs()) {
    if (ep.sim == "serve") continue;
    for (Phase p : StepPhases(ep.sim)) seen[static_cast<size_t>(p)] = true;
  }
  std::vector<Phase> phases;
  for (size_t p = 0; p < seen.size(); ++p) {
    if (seen[p]) phases.push_back(static_cast<Phase>(p));
  }
  std::vector<std::string> header{"worker"};
  for (Phase p : phases) header.push_back(std::string(PhaseName(p)) + " ms");
  for (const char* column :
       {"blame ms", "barriers blamed", "wait ms", "busy ms",
        "pipelined blame ms", "comm ms", "compute ms"}) {
    header.push_back(column);
  }
  out << "\n--- straggler ranking ---\n";
  TablePrinter table(std::move(header));
  for (size_t w = 0; w < rep.stragglers.size() && w < top; ++w) {
    const StragglerStat& s = rep.stragglers[w];
    std::vector<std::string> row{std::to_string(s.worker)};
    for (Phase p : phases) {
      row.push_back(Ms(s.phase_blame_seconds[static_cast<size_t>(p)]));
    }
    row.push_back(Ms(s.blame_seconds));
    row.push_back(std::to_string(s.steps_blamed));
    row.push_back(Ms(s.wait_seconds));
    row.push_back(Ms(s.busy_seconds));
    row.push_back(Ms(s.pipelined_blame_seconds));
    row.push_back(Ms(s.comm_seconds));
    row.push_back(Ms(s.compute_seconds));
    table.AddRow(std::move(row));
  }
  table.Print(out);
}

/// Per-phase critical-path summary of one epoch: straggler-summed total,
/// mean/max step cost, total barrier wait and the most-blamed worker.
void PrintCriticalPath(std::ostream& out, const obs::EpochEvents& epoch) {
  out << "\n--- critical path (straggler-summed, per phase) ---\n";
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
  table.Print(out);
}

/// The `top` most expensive steps of one epoch (by straggler-summed step
/// cost): step id, cost, critical worker (largest blame share within the
/// step) and the phase that dominates the step.
void PrintTopSteps(std::ostream& out, const obs::EpochEvents& epoch,
                   size_t top) {
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
  if (rows.size() > top) rows.resize(top);

  out << "\n--- most expensive steps ---\n";
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
  table.Print(out);
}

}  // namespace

void PrintExplain(std::ostream& out, const obs::EventLog& log,
                  const ExplainReport& rep, const ExplainReport* baseline,
                  size_t top) {
  PrintAttribution(out, rep, baseline);
  if (!rep.links.empty()) PrintLinks(out, rep, top);
  if (!rep.stragglers.empty()) PrintWorkers(out, log, rep, top);

  // Serving epochs have no barriers; the per-epoch views and the overlap
  // replay cover the training epochs only.
  const obs::EpochEvents* last = nullptr;
  for (const obs::EpochEvents& ep : log.epochs()) {
    if (ep.sim != "serve") last = &ep;
  }
  if (last == nullptr) return;
  PrintCriticalPath(out, *last);
  PrintTopSteps(out, *last, top);
  const double pct =
      rep.bsp_seconds > 0 ? 100.0 * rep.hidden_seconds / rep.bsp_seconds : 0.0;
  out << "\noverlap: bsp " << rep.bsp_seconds * 1e3 << " ms, pipelined "
      << rep.pipelined_seconds * 1e3 << " ms, hidden "
      << rep.hidden_seconds * 1e3 << " ms (" << TablePrinter::Fmt(pct, 1)
      << "% of bsp)\n";
}

}  // namespace trace
}  // namespace gnnpart
