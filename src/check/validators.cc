#include "check/validators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "common/stats.h"
#include "trace/analysis.h"
#include "trace/explain.h"

namespace gnnpart {
namespace check {
namespace {

Status Violation(const std::string& invariant, const std::string& detail) {
  return Status::FailedPrecondition(invariant + ": " + detail);
}

std::vector<double> ToDoubles(const std::vector<uint64_t>& v) {
  return std::vector<double>(v.begin(), v.end());
}

Status CheckPartitionIds(const std::vector<PartitionId>& assignment,
                         PartitionId k, size_t expected_size,
                         const std::string& unit) {
  if (k == 0 || k > kMaxPartitions) {
    return Violation("partition/k-range",
                     "k=" + std::to_string(k) + " outside [1, " +
                         std::to_string(kMaxPartitions) + "]");
  }
  if (assignment.size() != expected_size) {
    return Violation(
        "partition/assignment-size",
        "assignment covers " + std::to_string(assignment.size()) + " " +
            unit + "s but the graph has " + std::to_string(expected_size) +
            " (every " + unit + " must be assigned exactly once)");
  }
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] >= k) {
      return Violation("partition/id-range",
                       unit + " " + std::to_string(i) + " assigned to " +
                           std::to_string(assignment[i]) + " >= k=" +
                           std::to_string(k));
    }
  }
  return Status::Ok();
}

Status CompareCounts(const std::vector<uint64_t>& expected,
                     const std::vector<uint64_t>& reported,
                     const std::string& invariant) {
  if (expected != reported) {
    for (size_t p = 0; p < std::max(expected.size(), reported.size()); ++p) {
      uint64_t want = p < expected.size() ? expected[p] : 0;
      uint64_t got = p < reported.size() ? reported[p] : 0;
      if (want != got) {
        return Violation(invariant, "partition " + std::to_string(p) +
                                        ": reported " + std::to_string(got) +
                                        ", recomputed " +
                                        std::to_string(want));
      }
    }
    return Violation(invariant, "per-partition count vectors differ in size");
  }
  return Status::Ok();
}

Status CompareExact(double expected, double reported,
                    const std::string& invariant) {
  // Bit-exact comparison on purpose: both sides derive their doubles from
  // integer counts with identical final arithmetic, so any difference means
  // the metrics path and this serial re-derivation disagree.
  if (expected != reported) {
    return Violation(invariant, "reported " + std::to_string(reported) +
                                    ", recomputed " +
                                    std::to_string(expected) +
                                    " (must match bit-exactly)");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateGraph(const Graph& graph) {
  const size_t n = graph.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    auto nbrs = graph.Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= n) {
        return Violation("graph/neighbor-range",
                         "vertex " + std::to_string(v) + " lists neighbor " +
                             std::to_string(nbrs[i]) + " >= |V|=" +
                             std::to_string(n));
      }
      if (nbrs[i] == v) {
        return Violation("graph/self-loop", "vertex " + std::to_string(v) +
                                                " lists itself as neighbor");
      }
      if (i > 0 && nbrs[i] == nbrs[i - 1]) {
        return Violation("graph/adjacency-duplicate",
                         "vertex " + std::to_string(v) +
                             " lists duplicate CSR entry " +
                             std::to_string(nbrs[i]));
      }
      if (i > 0 && nbrs[i] < nbrs[i - 1]) {
        return Violation("graph/adjacency-sorted",
                         "vertex " + std::to_string(v) +
                             " adjacency not sorted at position " +
                             std::to_string(i));
      }
    }
  }
  // Symmetry: u in N(v) requires v in N(u).
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : graph.Neighbors(v)) {
      auto back = graph.Neighbors(u);
      if (!std::binary_search(back.begin(), back.end(), v)) {
        return Violation("graph/asymmetric-adjacency",
                         std::to_string(u) + " in N(" + std::to_string(v) +
                             ") but " + std::to_string(v) + " not in N(" +
                             std::to_string(u) + ")");
      }
    }
  }
  // Canonical edge list: sorted, unique, in range, self-loop-free, and for
  // undirected graphs stored once with src < dst.
  const auto& edges = graph.edges();
  size_t reciprocal_pairs = 0;
  for (size_t e = 0; e < edges.size(); ++e) {
    const Edge& edge = edges[e];
    if (edge.src >= n || edge.dst >= n) {
      return Violation("graph/edge-range",
                       "edge " + std::to_string(e) + " = (" +
                           std::to_string(edge.src) + ", " +
                           std::to_string(edge.dst) + ") out of range");
    }
    if (edge.src == edge.dst) {
      return Violation("graph/edge-self-loop",
                       "edge " + std::to_string(e) + " is a self-loop on " +
                           std::to_string(edge.src));
    }
    if (!graph.directed() && edge.src > edge.dst) {
      return Violation("graph/edge-canonical",
                       "undirected edge " + std::to_string(e) +
                           " not stored with src < dst");
    }
    if (e > 0 && !(edges[e - 1] < edge)) {
      return Violation("graph/edge-order",
                       "edge list unsorted or duplicate at index " +
                           std::to_string(e));
    }
    if (!graph.HasEdge(edge.src, edge.dst)) {
      return Violation("graph/edge-not-in-adjacency",
                       "edge " + std::to_string(e) + " = (" +
                           std::to_string(edge.src) + ", " +
                           std::to_string(edge.dst) +
                           ") missing from the adjacency");
    }
    if (graph.directed() && edge.src > edge.dst &&
        std::binary_search(edges.begin(), edges.end(),
                           Edge{edge.dst, edge.src})) {
      ++reciprocal_pairs;
    }
  }
  // Every adjacency entry must be backed by a canonical edge: with the
  // per-edge membership above it suffices to compare entry counts.
  size_t adjacency_entries = 0;
  for (VertexId v = 0; v < n; ++v) adjacency_entries += graph.Degree(v);
  size_t expected = 2 * edges.size() - 2 * reciprocal_pairs;
  if (adjacency_entries != expected) {
    return Violation("graph/adjacency-count",
                     "adjacency holds " + std::to_string(adjacency_entries) +
                         " entries but the edge list implies " +
                         std::to_string(expected));
  }
  return Status::Ok();
}

Status ValidateEdgePartitioning(const Graph& graph,
                                const EdgePartitioning& parts) {
  return CheckPartitionIds(parts.assignment, parts.k, graph.num_edges(),
                           "edge");
}

Status ValidateVertexPartitioning(const Graph& graph,
                                  const VertexPartitioning& parts) {
  return CheckPartitionIds(parts.assignment, parts.k, graph.num_vertices(),
                           "vertex");
}

Status ValidateReplicaMasks(const Graph& graph, const EdgePartitioning& parts,
                            const std::vector<uint64_t>& masks) {
  GNNPART_RETURN_NOT_OK(ValidateEdgePartitioning(graph, parts));
  if (masks.size() != graph.num_vertices()) {
    return Violation("partition/replica-mask",
                     "mask vector covers " + std::to_string(masks.size()) +
                         " vertices, graph has " +
                         std::to_string(graph.num_vertices()));
  }
  std::vector<uint64_t> expected = ComputeReplicaMasks(graph, parts);
  for (size_t v = 0; v < masks.size(); ++v) {
    if (masks[v] != expected[v]) {
      return Violation("partition/replica-mask",
                       "vertex " + std::to_string(v) +
                           " mask inconsistent with the edge assignment");
    }
  }
  return Status::Ok();
}

Status CheckEdgeMetrics(const Graph& graph, const EdgePartitioning& parts,
                        const EdgePartitionMetrics& reported) {
  GNNPART_RETURN_NOT_OK(ValidateEdgePartitioning(graph, parts));

  std::vector<uint64_t> edge_counts(parts.k, 0);
  for (PartitionId p : parts.assignment) ++edge_counts[p];
  GNNPART_RETURN_NOT_OK(CompareCounts(edge_counts,
                                      reported.edges_per_partition,
                                      "metrics/edges-per-partition"));

  std::vector<uint64_t> masks = ComputeReplicaMasks(graph, parts);
  uint64_t covered = 0;
  uint64_t extra_replicas = 0;
  std::vector<uint64_t> vertex_counts(parts.k, 0);
  std::vector<uint64_t> synced_counts(parts.k, 0);
  for (uint64_t mask : masks) {
    int replicas = 0;
    uint64_t m = mask;
    while (m) {
      ++vertex_counts[static_cast<size_t>(std::countr_zero(m))];
      m &= m - 1;
      ++replicas;
    }
    covered += static_cast<uint64_t>(replicas);
    if (replicas > 0) extra_replicas += static_cast<uint64_t>(replicas - 1);
    if (replicas > 1) {
      for (m = mask; m; m &= m - 1) {
        ++synced_counts[static_cast<size_t>(std::countr_zero(m))];
      }
    }
  }
  GNNPART_RETURN_NOT_OK(CompareCounts(vertex_counts,
                                      reported.vertices_per_partition,
                                      "metrics/vertices-per-partition"));
  GNNPART_RETURN_NOT_OK(CompareCounts(synced_counts,
                                      reported.synced_vertices_per_partition,
                                      "metrics/synced-per-partition"));
  if (extra_replicas != reported.total_replicas) {
    return Violation("metrics/total-replicas",
                     "reported " + std::to_string(reported.total_replicas) +
                         ", recomputed " + std::to_string(extra_replicas));
  }
  double denom = static_cast<double>(graph.num_vertices());
  double rf = denom > 0 ? static_cast<double>(covered) / denom : 0;
  GNNPART_RETURN_NOT_OK(CompareExact(rf, reported.replication_factor,
                                     "metrics/replication-factor"));
  GNNPART_RETURN_NOT_OK(CompareExact(MaxOverMean(ToDoubles(edge_counts)),
                                     reported.edge_balance,
                                     "metrics/edge-balance"));
  GNNPART_RETURN_NOT_OK(CompareExact(MaxOverMean(ToDoubles(vertex_counts)),
                                     reported.vertex_balance,
                                     "metrics/vertex-balance"));
  return Status::Ok();
}

Status CheckVertexMetrics(const Graph& graph, const VertexPartitioning& parts,
                          const VertexSplit& split,
                          const VertexPartitionMetrics& reported) {
  GNNPART_RETURN_NOT_OK(ValidateVertexPartitioning(graph, parts));
  if (split.num_vertices() != graph.num_vertices()) {
    return Violation("partition/split-size",
                     "split covers " + std::to_string(split.num_vertices()) +
                         " vertices, graph has " +
                         std::to_string(graph.num_vertices()));
  }

  std::vector<uint64_t> vertex_counts(parts.k, 0);
  for (PartitionId p : parts.assignment) ++vertex_counts[p];
  GNNPART_RETURN_NOT_OK(CompareCounts(vertex_counts,
                                      reported.vertices_per_partition,
                                      "metrics/vertices-per-partition"));

  std::vector<uint64_t> train_counts(parts.k, 0);
  for (VertexId v : split.train_vertices()) {
    ++train_counts[parts.assignment[v]];
  }
  GNNPART_RETURN_NOT_OK(CompareCounts(train_counts,
                                      reported.train_vertices_per_partition,
                                      "metrics/train-vertices-per-partition"));

  uint64_t cut = 0;
  for (const Edge& e : graph.edges()) {
    if (parts.assignment[e.src] != parts.assignment[e.dst]) ++cut;
  }
  if (cut != reported.cut_edges) {
    return Violation("metrics/edge-cut",
                     "reported " + std::to_string(reported.cut_edges) +
                         " cut edges, recomputed " + std::to_string(cut));
  }
  double ratio = graph.num_edges() > 0
                     ? static_cast<double>(cut) /
                           static_cast<double>(graph.num_edges())
                     : 0;
  GNNPART_RETURN_NOT_OK(
      CompareExact(ratio, reported.edge_cut_ratio, "metrics/cut-ratio"));
  GNNPART_RETURN_NOT_OK(CompareExact(MaxOverMean(ToDoubles(vertex_counts)),
                                     reported.vertex_balance,
                                     "metrics/vertex-balance"));
  GNNPART_RETURN_NOT_OK(CompareExact(MaxOverMean(ToDoubles(train_counts)),
                                     reported.train_vertex_balance,
                                     "metrics/train-balance"));
  return Status::Ok();
}

Status ValidateProfile(const DistDglEpochProfile& profile) {
  if (profile.steps == 0 || profile.workers == 0 ||
      profile.workers > kMaxPartitions) {
    return Violation("profile/shape",
                     "steps=" + std::to_string(profile.steps) + " workers=" +
                         std::to_string(profile.workers));
  }
  if (profile.profiles.size() != profile.steps) {
    return Violation("profile/shape",
                     "profile matrix has " +
                         std::to_string(profile.profiles.size()) +
                         " step rows, declared steps=" +
                         std::to_string(profile.steps));
  }
  for (size_t s = 0; s < profile.profiles.size(); ++s) {
    const auto& step = profile.profiles[s];
    if (step.size() != profile.workers) {
      return Violation("profile/shape",
                       "step " + std::to_string(s) + " has " +
                           std::to_string(step.size()) +
                           " worker entries, declared workers=" +
                           std::to_string(profile.workers));
    }
    for (size_t w = 0; w < step.size(); ++w) {
      const MiniBatchProfile& mb = step[w];
      const std::string at =
          " at (step " + std::to_string(s) + ", worker " + std::to_string(w) +
          ")";
      if (mb.local_input_vertices + mb.remote_input_vertices !=
          mb.input_vertices) {
        return Violation("profile/locality-sum",
                         "local " + std::to_string(mb.local_input_vertices) +
                             " + remote " +
                             std::to_string(mb.remote_input_vertices) +
                             " != input " +
                             std::to_string(mb.input_vertices) + at);
      }
      if (mb.seeds > mb.input_vertices) {
        return Violation("profile/seed-count",
                         std::to_string(mb.seeds) + " seeds exceed " +
                             std::to_string(mb.input_vertices) +
                             " input vertices" + at);
      }
      if (!mb.frontier_sizes.empty() &&
          mb.frontier_sizes.size() != mb.hop_edges.size() + 1) {
        return Violation("profile/hop-shape",
                         std::to_string(mb.frontier_sizes.size()) +
                             " frontier sizes vs " +
                             std::to_string(mb.hop_edges.size()) +
                             " hop-edge entries" + at);
      }
      size_t edge_sum = 0;
      for (size_t h : mb.hop_edges) edge_sum += h;
      if (edge_sum != mb.computation_edges) {
        return Violation("profile/edge-sum",
                         "computation_edges=" +
                             std::to_string(mb.computation_edges) +
                             " but hops sum to " + std::to_string(edge_sum) +
                             at);
      }
    }
  }
  return Status::Ok();
}

Status ValidateTrace(const obs::EpochEvents& epoch) {
  using obs::Event;
  using obs::Phase;
  const std::vector<Phase>& phases = trace::StepPhases(epoch.sim);
  // Barrier alignment: spans of one (step, phase) share t0.
  std::vector<std::vector<double>> barrier(
      epoch.steps, std::vector<double>(obs::kNumPhases, -1.0));
  size_t i = 0;
  for (const Event& span : epoch.events) {
    if (span.kind != Event::Kind::kSpan) continue;
    const std::string at = " in span " + std::to_string(i++);
    if (phases.empty()) {
      return Violation("trace/no-simulator",
                       "span in an epoch of unknown simulator '" + epoch.sim +
                           "'" + at);
    }
    if (span.step >= epoch.steps) {
      return Violation("trace/step-range",
                       "step " + std::to_string(span.step) + " >= declared " +
                           std::to_string(epoch.steps) + at);
    }
    if (span.src < 0 || static_cast<uint32_t>(span.src) >= epoch.workers) {
      return Violation("trace/worker-range",
                       "worker " + std::to_string(span.src) +
                           " outside declared " +
                           std::to_string(epoch.workers) + at);
    }
    if (!(span.dur >= 0) || !std::isfinite(span.dur)) {
      return Violation("trace/negative-duration",
                       "duration " + std::to_string(span.dur) + at);
    }
    if (!(span.bytes >= 0) || !std::isfinite(span.bytes)) {
      return Violation("trace/negative-bytes",
                       "bytes " + std::to_string(span.bytes) + at);
    }
    if (!(span.comm >= 0) || span.comm > span.dur ||
        !std::isfinite(span.comm)) {
      return Violation("trace/comm-share",
                       "comm_seconds " + std::to_string(span.comm) +
                           " outside [0, duration " +
                           std::to_string(span.dur) + "]" + at);
    }
    if (!(span.t0 >= 0) || !std::isfinite(span.t0)) {
      return Violation("trace/negative-begin",
                       "t_begin " + std::to_string(span.t0) + at);
    }
    if (std::find(phases.begin(), phases.end(), span.phase) == phases.end()) {
      return Violation("trace/phase-set",
                       std::string("phase ") + obs::PhaseName(span.phase) +
                           " does not belong to simulator " + epoch.sim + at);
    }
    double& begin = barrier[span.step][static_cast<size_t>(span.phase)];
    if (begin < 0) {
      begin = span.t0;
    } else if (begin != span.t0) {
      return Violation("trace/barrier-alignment",
                       "workers enter (step " + std::to_string(span.step) +
                           ", " + obs::PhaseName(span.phase) +
                           ") at different instants" + at);
    }
  }
  if (i == 0 && !epoch.sim.empty()) {
    return Violation("trace/empty-epoch",
                     "simulator declared but no spans recorded");
  }
  return Status::Ok();
}

namespace {

Status ReportMismatch(const char* phase, double reconstructed,
                      double reported) {
  return Violation("trace/report-mismatch",
                   std::string(phase) + " reconstructed " +
                       std::to_string(reconstructed) + " != reported " +
                       std::to_string(reported) +
                       " (per-step phase maxima must reproduce the epoch "
                       "report bit-exactly)");
}

}  // namespace

Status CheckTraceReconstructsReport(const obs::EpochEvents& epoch,
                                    const DistDglEpochReport& report) {
  GNNPART_RETURN_NOT_OK(ValidateTrace(epoch));
  if (epoch.sim != "distdgl") {
    return Violation("trace/simulator-mismatch",
                     "trace was not recorded by the DistDGL simulator");
  }
  trace::DistDglPhaseSeconds r = trace::ReconstructDistDglReport(epoch);
  if (r.sampling != report.sampling_seconds) {
    return ReportMismatch("sampling", r.sampling, report.sampling_seconds);
  }
  if (r.feature != report.feature_seconds) {
    return ReportMismatch("feature", r.feature, report.feature_seconds);
  }
  if (r.forward != report.forward_seconds) {
    return ReportMismatch("forward", r.forward, report.forward_seconds);
  }
  if (r.backward != report.backward_seconds) {
    return ReportMismatch("backward", r.backward, report.backward_seconds);
  }
  if (r.update != report.update_seconds) {
    return ReportMismatch("update", r.update, report.update_seconds);
  }
  if (r.epoch != report.epoch_seconds) {
    return ReportMismatch("epoch", r.epoch, report.epoch_seconds);
  }
  return Status::Ok();
}

Status CheckTraceReconstructsReport(const obs::EpochEvents& epoch,
                                    const DistGnnEpochReport& report) {
  GNNPART_RETURN_NOT_OK(ValidateTrace(epoch));
  if (epoch.sim != "distgnn") {
    return Violation("trace/simulator-mismatch",
                     "trace was not recorded by the DistGNN simulator");
  }
  trace::DistGnnPhaseSeconds r = trace::ReconstructDistGnnReport(epoch);
  if (r.forward != report.forward_seconds) {
    return ReportMismatch("forward", r.forward, report.forward_seconds);
  }
  if (r.backward != report.backward_seconds) {
    return ReportMismatch("backward", r.backward, report.backward_seconds);
  }
  if (r.optimizer != report.optimizer_seconds) {
    return ReportMismatch("optimizer", r.optimizer,
                          report.optimizer_seconds);
  }
  if (r.epoch != report.epoch_seconds) {
    return ReportMismatch("epoch", r.epoch, report.epoch_seconds);
  }
  return Status::Ok();
}

Status ValidateFlowConservation(const net::Fabric& fabric,
                                const net::LinkUsage& usage) {
  const size_t links = fabric.links().size();
  const size_t hosts = static_cast<size_t>(fabric.num_hosts());
  if (usage.link_bytes.size() != links ||
      usage.link_busy_seconds.size() != links ||
      usage.host_egress_bytes.size() != hosts ||
      usage.host_offered_bytes.size() != hosts) {
    return Violation("net/usage-shape",
                     "usage vectors are not shaped for the fabric (" +
                         std::to_string(links) + " links, " +
                         std::to_string(hosts) + " hosts)");
  }
  for (size_t l = 0; l < links; ++l) {
    if (!(usage.link_bytes[l] >= 0) || !std::isfinite(usage.link_bytes[l]) ||
        !(usage.link_busy_seconds[l] >= 0) ||
        !std::isfinite(usage.link_busy_seconds[l])) {
      return Violation("net/usage-negative",
                       "link '" + fabric.links()[l].name +
                           "' carries negative or non-finite accounting");
    }
  }
  for (size_t h = 0; h < hosts; ++h) {
    const double offered = usage.host_offered_bytes[h];
    const double egress = usage.host_egress_bytes[h];
    if (!(offered >= 0) || !std::isfinite(offered) || !(egress >= 0) ||
        !std::isfinite(egress)) {
      return Violation("net/usage-negative",
                       "host " + std::to_string(h) +
                           " carries negative or non-finite byte totals");
    }
    if (fabric.HostRoutes(static_cast<int>(h)).size() == 1) {
      // Single-route hosts carry their bytes unsplit, so delivery must
      // match the offered volume bit-exactly.
      if (egress != offered) {
        return Violation("net/flow-conservation",
                         "host " + std::to_string(h) + " offered " +
                             std::to_string(offered) + " bytes but links "
                             "delivered " + std::to_string(egress) +
                             " (single route: must match bit-exactly)");
      }
    } else {
      const double scale = std::max(1.0, offered);
      if (std::abs(egress - offered) > 1e-9 * scale) {
        return Violation("net/flow-conservation",
                         "host " + std::to_string(h) + " offered " +
                             std::to_string(offered) + " bytes but links "
                             "delivered " + std::to_string(egress));
      }
    }
  }
  return Status::Ok();
}

Status ValidateOverlapReport(const obs::EpochEvents& epoch,
                             const net::OverlapReport& report) {
  const net::OverlapReport r = net::ComputeOverlap(epoch);
  if (r.steps.size() != report.steps.size() ||
      r.worker_pipelined_blame != report.worker_pipelined_blame ||
      r.worker_comm_seconds != report.worker_comm_seconds ||
      r.worker_compute_seconds != report.worker_compute_seconds ||
      r.bsp_epoch_seconds != report.bsp_epoch_seconds ||
      r.pipelined_epoch_seconds != report.pipelined_epoch_seconds ||
      r.hidden_seconds != report.hidden_seconds) {
    return Violation("net/overlap-mismatch",
                     "overlap report does not match its serial re-derivation "
                     "from the spans (must agree bit-exactly)");
  }
  for (size_t s = 0; s < report.steps.size(); ++s) {
    const net::StepOverlap& step = report.steps[s];
    const net::StepOverlap& ref = r.steps[s];
    if (step.bsp_seconds != ref.bsp_seconds ||
        step.pipelined_seconds != ref.pipelined_seconds ||
        step.straggler != ref.straggler || step.comm_bound != ref.comm_bound) {
      return Violation("net/overlap-mismatch",
                       "step " + std::to_string(s) +
                           " differs from its serial re-derivation");
    }
    if (step.pipelined_seconds > step.bsp_seconds) {
      return Violation("net/overlap-exceeds-bsp",
                       "step " + std::to_string(s) + " pipelined " +
                           std::to_string(step.pipelined_seconds) +
                           " exceeds BSP " +
                           std::to_string(step.bsp_seconds));
    }
  }
  if (report.hidden_seconds !=
      report.bsp_epoch_seconds - report.pipelined_epoch_seconds) {
    return Violation("net/overlap-hidden-identity",
                     "hidden != bsp - pipelined (bit-exact identity)");
  }
  return Status::Ok();
}

Status ValidateSplitMergePlan(const Graph& graph, const SplitMergePlan& plan,
                              const EdgePartitioning& merged) {
  const uint64_t m = graph.num_edges();
  const size_t shards = static_cast<size_t>(plan.split_factor);
  if (plan.split_factor < 1 || plan.split_factor > kMaxSplitFactor) {
    return Violation("partition/split-merge-shape",
                     "split factor " + std::to_string(plan.split_factor) +
                         " outside [1, " + std::to_string(kMaxSplitFactor) +
                         "]");
  }
  if (plan.k != merged.k) {
    return Violation("partition/split-merge-shape",
                     "plan k=" + std::to_string(plan.k) +
                         " but merged partitioning has k=" +
                         std::to_string(merged.k));
  }
  if (plan.num_edges != m || plan.sub_assignment.size() != m ||
      merged.assignment.size() != m) {
    return Violation(
        "partition/split-merge-shape",
        "graph has " + std::to_string(m) + " edges; plan covers " +
            std::to_string(plan.num_edges) + ", sub-assignment " +
            std::to_string(plan.sub_assignment.size()) + ", merged " +
            std::to_string(merged.assignment.size()));
  }
  const size_t num_subs = shards * plan.k;
  if (plan.sub_to_partition.size() != num_subs) {
    return Violation("partition/split-merge-shape",
                     "matching covers " +
                         std::to_string(plan.sub_to_partition.size()) +
                         " sub-partitions, expected " +
                         std::to_string(num_subs));
  }

  // Shard coverage: the boundaries must tile [0, m) — every edge belongs to
  // exactly one shard, no shard dropped, none overlapping.
  if (plan.shard_begin.size() != shards + 1) {
    return Violation("partition/split-merge-shard-coverage",
                     "boundary vector has " +
                         std::to_string(plan.shard_begin.size()) +
                         " entries, expected " + std::to_string(shards + 1));
  }
  if (plan.shard_begin.front() != 0 || plan.shard_begin.back() != m) {
    return Violation("partition/split-merge-shard-coverage",
                     "boundaries span [" +
                         std::to_string(plan.shard_begin.front()) + ", " +
                         std::to_string(plan.shard_begin.back()) +
                         "), expected [0, " + std::to_string(m) + ")");
  }
  for (size_t s = 0; s < shards; ++s) {
    if (plan.shard_begin[s] > plan.shard_begin[s + 1]) {
      return Violation("partition/split-merge-shard-coverage",
                       "shard " + std::to_string(s) +
                           " has negative extent: begin " +
                           std::to_string(plan.shard_begin[s]) + " > end " +
                           std::to_string(plan.shard_begin[s + 1]));
    }
  }

  // Sub-partition range: every edge's sub-partition must belong to its own
  // shard's id block [s * k, (s + 1) * k) — a shard instance can only
  // assign its own edges.
  {
    size_t s = 0;
    for (uint64_t e = 0; e < m; ++e) {
      while (e >= plan.shard_begin[s + 1]) ++s;
      const uint32_t sub = plan.sub_assignment[e];
      const uint32_t sub_lo = static_cast<uint32_t>(s * plan.k);
      if (sub < sub_lo || sub >= sub_lo + plan.k) {
        return Violation("partition/split-merge-sub-range",
                         "edge " + std::to_string(e) + " of shard " +
                             std::to_string(s) + " carries sub-partition " +
                             std::to_string(sub) + " outside [" +
                             std::to_string(sub_lo) + ", " +
                             std::to_string(sub_lo + plan.k) + ")");
      }
    }
  }

  // Matching totality: every sub-partition maps to a real partition.
  for (size_t i = 0; i < num_subs; ++i) {
    if (plan.sub_to_partition[i] >= plan.k) {
      return Violation("partition/split-merge-matching",
                       "sub-partition " + std::to_string(i) +
                           " matched to partition " +
                           std::to_string(plan.sub_to_partition[i]) +
                           " >= k=" + std::to_string(plan.k));
    }
  }

  // Merge conservation: merging relabels sub-partitions, it never
  // reassigns an edge — the final assignment must be exactly the
  // composition through the matching.
  for (uint64_t e = 0; e < m; ++e) {
    const PartitionId expected =
        plan.sub_to_partition[plan.sub_assignment[e]];
    if (merged.assignment[e] != expected) {
      return Violation("partition/split-merge-conservation",
                       "edge " + std::to_string(e) + " assigned to " +
                           std::to_string(merged.assignment[e]) +
                           " but its sub-partition " +
                           std::to_string(plan.sub_assignment[e]) +
                           " is matched to " + std::to_string(expected));
    }
  }
  return Status::Ok();
}

Status CheckSplitMergeSerialEquivalence(const Graph& graph,
                                        const EdgePartitioner& sequential,
                                        PartitionId k, uint64_t seed,
                                        const EdgePartitioning& merged) {
  Result<EdgePartitioning> reference = sequential.Partition(graph, k, seed);
  if (!reference.ok()) {
    return Violation("partition/split-merge-serial-equivalence",
                     "sequential reference run failed: " +
                         reference.status().message());
  }
  if (reference->k != merged.k ||
      reference->assignment.size() != merged.assignment.size()) {
    return Violation("partition/split-merge-serial-equivalence",
                     "shape mismatch: sequential (k=" +
                         std::to_string(reference->k) + ", " +
                         std::to_string(reference->assignment.size()) +
                         " edges) vs split-merge (k=" +
                         std::to_string(merged.k) + ", " +
                         std::to_string(merged.assignment.size()) +
                         " edges)");
  }
  for (size_t e = 0; e < merged.assignment.size(); ++e) {
    if (reference->assignment[e] != merged.assignment[e]) {
      return Violation("partition/split-merge-serial-equivalence",
                       "edge " + std::to_string(e) + ": sequential " +
                           std::to_string(reference->assignment[e]) +
                           " vs split-merge " +
                           std::to_string(merged.assignment[e]) +
                           " (split factor 1 must be bit-identical)");
    }
  }
  return Status::Ok();
}

Status ValidateEdgeStream(const dyn::EdgeStream& stream, size_t num_edges) {
  const std::string kName = "dyn/stream-monotonicity";
  if (stream.batch_begin.size() != stream.growth_batches + 2) {
    return Violation(kName, "batch_begin has " +
                                std::to_string(stream.batch_begin.size()) +
                                " boundaries for " +
                                std::to_string(stream.growth_batches) +
                                " growth batches (want growth_batches + 2)");
  }
  if (stream.batch_begin.front() != 0) {
    return Violation(kName, "first boundary is " +
                                std::to_string(stream.batch_begin.front()) +
                                ", not 0");
  }
  if (stream.batch_begin.back() != num_edges) {
    return Violation(kName, "last boundary is " +
                                std::to_string(stream.batch_begin.back()) +
                                " but the graph has " +
                                std::to_string(num_edges) + " edges");
  }
  for (size_t b = 0; b + 1 < stream.batch_begin.size(); ++b) {
    if (stream.batch_begin[b] > stream.batch_begin[b + 1]) {
      return Violation(kName, "boundary " + std::to_string(b) +
                                  " decreases (" +
                                  std::to_string(stream.batch_begin[b]) +
                                  " > " +
                                  std::to_string(stream.batch_begin[b + 1]) +
                                  "): the arrived prefix must only grow");
    }
  }
  if (stream.batch_begin[1] == 0) {
    return Violation(kName, "batch 0 is empty (the initial snapshot must "
                            "contain at least one edge)");
  }
  if (stream.order.size() != num_edges) {
    return Violation(kName, "order lists " +
                                std::to_string(stream.order.size()) +
                                " arrivals for " + std::to_string(num_edges) +
                                " edges");
  }
  std::vector<uint8_t> seen(num_edges, 0);
  for (EdgeId id : stream.order) {
    if (id >= num_edges) {
      return Violation(kName,
                       "arrival of edge " + std::to_string(id) +
                           " out of range (graph has " +
                           std::to_string(num_edges) + " edges)");
    }
    if (seen[id]) {
      return Violation(kName, "edge " + std::to_string(id) +
                                  " arrives more than once");
    }
    seen[id] = 1;
  }
  return Status::Ok();
}

Status ValidateAssignmentContinuity(const std::vector<PartitionId>& before,
                                    const std::vector<PartitionId>& after,
                                    const std::vector<uint8_t>& frozen) {
  const std::string kName = "dyn/assignment-continuity";
  if (before.size() != after.size() || frozen.size() != before.size()) {
    return Violation(kName, "shape mismatch: before " +
                                std::to_string(before.size()) + ", after " +
                                std::to_string(after.size()) + ", frozen " +
                                std::to_string(frozen.size()));
  }
  for (size_t i = 0; i < before.size(); ++i) {
    if (frozen[i] && before[i] != after[i]) {
      return Violation(
          kName, "entity " + std::to_string(i) +
                     " was materialized before the batch but moved from " +
                     std::to_string(before[i]) + " to " +
                     std::to_string(after[i]) +
                     " without a repartition event");
    }
  }
  return Status::Ok();
}

Status ValidateMigrationPlan(const std::vector<PartitionId>& before,
                             const std::vector<PartitionId>& after,
                             const std::vector<uint8_t>& materialized,
                             uint64_t bytes_per_entity,
                             const std::vector<uint64_t>& masks_before,
                             const std::vector<uint64_t>& masks_after,
                             uint64_t bytes_per_replica,
                             const dyn::MigrationPlan& plan) {
  const std::string kName = "dyn/migration-diff-conservation";
  if (before.size() != after.size() || materialized.size() != before.size()) {
    return Violation(kName, "shape mismatch: before " +
                                std::to_string(before.size()) + ", after " +
                                std::to_string(after.size()) +
                                ", materialized " +
                                std::to_string(materialized.size()));
  }
  if (masks_before.size() != masks_after.size()) {
    return Violation(kName,
                     "mask shape mismatch: " +
                         std::to_string(masks_before.size()) + " vs " +
                         std::to_string(masks_after.size()));
  }
  if (plan.egress_bytes.size() != plan.k) {
    return Violation(kName, "egress vector has " +
                                std::to_string(plan.egress_bytes.size()) +
                                " entries for k=" + std::to_string(plan.k));
  }
  // Serial re-derivation of the diff, deliberately independent of the
  // parallel engine in dyn/migrate.cc.
  uint64_t moved = 0;
  uint64_t replicas = 0;
  std::vector<uint64_t> egress(plan.k, 0);
  for (size_t i = 0; i < before.size(); ++i) {
    if (!materialized[i]) continue;
    if (before[i] == after[i] || before[i] == kInvalidPartition ||
        after[i] == kInvalidPartition) {
      continue;
    }
    if (before[i] >= plan.k) {
      return Violation(kName, "entity " + std::to_string(i) +
                                  " leaves out-of-range partition " +
                                  std::to_string(before[i]));
    }
    ++moved;
    egress[before[i]] += bytes_per_entity;
  }
  for (size_t v = 0; v < masks_before.size(); ++v) {
    const uint64_t old_mask = masks_before[v];
    if (old_mask == 0) continue;
    const uint64_t created = masks_after[v] & ~old_mask;
    if (created == 0) continue;
    const uint64_t count = std::popcount(created);
    const int source = std::countr_zero(old_mask);
    if (static_cast<PartitionId>(source) >= plan.k) {
      return Violation(kName, "vertex " + std::to_string(v) +
                                  " replicates out of out-of-range "
                                  "partition " +
                                  std::to_string(source));
    }
    replicas += count;
    egress[source] += count * bytes_per_replica;
  }
  if (plan.moved_entities != moved) {
    return Violation(kName, "plan moves " +
                                std::to_string(plan.moved_entities) +
                                " entities but the assignments differ in " +
                                std::to_string(moved));
  }
  if (plan.replicas_created != replicas) {
    return Violation(kName, "plan creates " +
                                std::to_string(plan.replicas_created) +
                                " replicas but the masks gained " +
                                std::to_string(replicas) + " priced bits");
  }
  if (plan.entity_bytes != moved * bytes_per_entity ||
      plan.replica_bytes != replicas * bytes_per_replica) {
    return Violation(
        kName, "byte totals drifted: entity " +
                   std::to_string(plan.entity_bytes) + " (want " +
                   std::to_string(moved * bytes_per_entity) + "), replica " +
                   std::to_string(plan.replica_bytes) + " (want " +
                   std::to_string(replicas * bytes_per_replica) + ")");
  }
  if (plan.total_bytes != plan.entity_bytes + plan.replica_bytes) {
    return Violation(kName,
                     "total_bytes " + std::to_string(plan.total_bytes) +
                         " != entity " + std::to_string(plan.entity_bytes) +
                         " + replica " + std::to_string(plan.replica_bytes));
  }
  uint64_t egress_sum = 0;
  for (PartitionId p = 0; p < plan.k; ++p) {
    if (plan.egress_bytes[p] != egress[p]) {
      return Violation(kName, "partition " + std::to_string(p) +
                                  " egress is " +
                                  std::to_string(plan.egress_bytes[p]) +
                                  " bytes, serial recount says " +
                                  std::to_string(egress[p]));
    }
    egress_sum += egress[p];
  }
  if (egress_sum != plan.total_bytes) {
    return Violation(kName, "egress sums to " + std::to_string(egress_sum) +
                                " bytes but total_bytes is " +
                                std::to_string(plan.total_bytes) +
                                " (traffic invented or lost)");
  }
  return Status::Ok();
}

Status ValidateServeRequests(const std::vector<serve::ServeRequest>& requests,
                             const serve::RequestGenConfig& config,
                             const VertexPartitioning& owners) {
  constexpr const char* kName = "serve/request-order";
  for (size_t i = 0; i < requests.size(); ++i) {
    const serve::ServeRequest& req = requests[i];
    const std::string at = " at request " + std::to_string(i);
    if (req.id != i) {
      return Violation(kName, "id " + std::to_string(req.id) +
                                  " is not sequential" + at);
    }
    if (!std::isfinite(req.arrival) || req.arrival < 0 ||
        req.arrival >= config.duration) {
      return Violation(kName, "arrival " + std::to_string(req.arrival) +
                                  " outside [0, duration)" + at);
    }
    if (i > 0 && requests[i - 1].arrival > req.arrival) {
      return Violation(kName, "arrivals run backwards" + at);
    }
    if (req.ego >= owners.assignment.size()) {
      return Violation(kName, "ego vertex " + std::to_string(req.ego) +
                                  " outside the graph" + at);
    }
    if (req.home != owners.assignment[req.ego]) {
      return Violation(kName, "home partition " + std::to_string(req.home) +
                                  " is not the ego's owner" + at);
    }
  }
  return Status::Ok();
}

Status ValidateServeBatches(const std::vector<serve::ServeRequest>& requests,
                            const std::vector<serve::ServeBatch>& batches,
                            PartitionId k, const serve::BatchConfig& config) {
  constexpr const char* kName = "serve/batch-shape";
  std::vector<uint32_t> placed(requests.size(), 0);
  for (size_t b = 0; b < batches.size(); ++b) {
    const serve::ServeBatch& batch = batches[b];
    const std::string at = " at batch " + std::to_string(b);
    if (batch.id != b) {
      return Violation(kName, "batch id " + std::to_string(batch.id) +
                                  " is not sequential" + at);
    }
    if (batch.part >= k) {
      return Violation(kName, "partition " + std::to_string(batch.part) +
                                  " outside [0, k)" + at);
    }
    if (batch.members.empty() || batch.members.size() > config.max_batch) {
      return Violation(kName, "size " + std::to_string(batch.members.size()) +
                                  " outside [1, max_batch]" + at);
    }
    if (b > 0 && batches[b - 1].dispatch > batch.dispatch) {
      return Violation(kName, "dispatch instants run backwards" + at);
    }
    double oldest = std::numeric_limits<double>::infinity();
    for (uint32_t m : batch.members) {
      if (m >= requests.size()) {
        return Violation(kName, "member " + std::to_string(m) +
                                    " outside the request trace" + at);
      }
      ++placed[m];
      if (requests[m].home != batch.part) {
        return Violation(kName, "member " + std::to_string(m) +
                                    " homed on another partition" + at);
      }
      if (requests[m].arrival > batch.dispatch) {
        return Violation(kName, "member " + std::to_string(m) +
                                    " arrives after the dispatch" + at);
      }
      oldest = std::min(oldest, requests[m].arrival);
    }
    if (batch.dispatch > oldest + config.max_wait) {
      return Violation(kName, "dispatch exceeds the oldest member's grace" +
                                  at);
    }
  }
  for (size_t i = 0; i < placed.size(); ++i) {
    if (placed[i] != 1) {
      return Violation(kName, "request " + std::to_string(i) + " placed in " +
                                  std::to_string(placed[i]) +
                                  " batches (expected exactly 1)");
    }
  }
  return Status::Ok();
}

namespace {

// The serve report's exact-quantile rule re-derived independently: the
// smallest sorted element with at least ceil(q * n) values at or below it.
double ServeQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

Status ValidateServeReport(const std::vector<serve::ServeRequest>& requests,
                           const std::vector<serve::ServeBatch>& batches,
                           const serve::ServeReport& report) {
  constexpr const char* kName = "serve/latency-accounting";
  if (report.requests != requests.size() ||
      report.latencies.size() != requests.size()) {
    return Violation(kName,
                     "report covers " + std::to_string(report.requests) +
                         " requests with " +
                         std::to_string(report.latencies.size()) +
                         " latencies, trace has " +
                         std::to_string(requests.size()));
  }
  if (report.batches != batches.size() ||
      report.outcomes.size() != batches.size()) {
    return Violation(kName, "report covers " + std::to_string(report.batches) +
                                " batches, batcher produced " +
                                std::to_string(batches.size()));
  }
  double queue = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    const serve::ServeBatch& batch = batches[b];
    const serve::BatchOutcome& out = report.outcomes[b];
    const std::string at = " at batch " + std::to_string(b);
    if (!std::isfinite(out.completion) || out.completion < batch.dispatch) {
      return Violation(kName, "completion precedes the dispatch" + at);
    }
    for (uint32_t m : batch.members) {
      const double latency = report.latencies[requests[m].id];
      if (!std::isfinite(latency) ||
          latency != out.completion - requests[m].arrival) {
        return Violation(kName,
                         "request " + std::to_string(m) +
                             " latency does not equal completion - arrival" +
                             at);
      }
      const double wait = batch.dispatch - requests[m].arrival;
      if (!(wait >= 0) || latency < wait) {
        return Violation(kName, "request " + std::to_string(m) +
                                    " latency below its queue wait" + at);
      }
      queue += wait;
    }
  }
  if (queue != report.queue_seconds) {
    return Violation(kName,
                     "queue_seconds " + std::to_string(report.queue_seconds) +
                         " != batch-order re-sum " + std::to_string(queue));
  }
  std::vector<double> sorted = report.latencies;
  std::sort(sorted.begin(), sorted.end());
  if (report.latency.p50 != ServeQuantile(sorted, 0.50) ||
      report.latency.p95 != ServeQuantile(sorted, 0.95) ||
      report.latency.p99 != ServeQuantile(sorted, 0.99) ||
      report.latency.max != (sorted.empty() ? 0 : sorted.back())) {
    return Violation(kName,
                     "quantiles disagree with the sorted latency vector");
  }
  if (!(report.congestion_seconds >= 0) ||
      !std::isfinite(report.congestion_seconds) ||
      !std::isfinite(report.compute_seconds) ||
      !std::isfinite(report.network_seconds) ||
      !(report.network_bytes >= 0)) {
    return Violation(kName, "malformed attribution totals");
  }
  return Status::Ok();
}

Status ValidateEventLog(const obs::EventLog& log) {
  const size_t num_links = log.links().size();
  for (size_t l = 0; l < num_links; ++l) {
    if (log.links()[l].name.empty() || !(log.links()[l].capacity > 0) ||
        !std::isfinite(log.links()[l].capacity)) {
      return Violation("obs/event-shape",
                       "link " + std::to_string(l) +
                           " has an empty name or non-positive capacity");
    }
  }
  for (const obs::RunEvent& re : log.run_events()) {
    if (re.kind == obs::RunEvent::Kind::kRepartition) {
      if (re.trigger != "period" && re.trigger != "quality") {
        return Violation("obs/event-shape", "repartition of batch " +
                                                std::to_string(re.batch) +
                                                " has unknown trigger '" +
                                                re.trigger + "'");
      }
    } else if (re.t1 < re.t0 || !std::isfinite(re.t0) ||
               !std::isfinite(re.t1) || !(re.bytes >= 0)) {
      return Violation("obs/event-time",
                       "migration of batch " + std::to_string(re.batch) +
                           " has a malformed burst window");
    }
  }
  for (size_t i = 0; i < log.epochs().size(); ++i) {
    const obs::EpochEvents& ep = log.epochs()[i];
    const std::string at = " in epoch " + std::to_string(i);
    const std::vector<obs::Phase>& phases = trace::StepPhases(ep.sim);
    if (phases.empty()) {
      return Violation("obs/event-shape",
                       "unknown simulator '" + ep.sim + "'" + at);
    }
    const auto phase_known = [&](obs::Phase phase) {
      return std::find(phases.begin(), phases.end(), phase) != phases.end();
    };
    if (ep.steps == 0 || ep.workers == 0 || ep.grain == 0) {
      return Violation("obs/event-shape",
                       "epoch shape with a zero dimension" + at);
    }
    // Per-link cursor: sample intervals must be monotone non-overlapping
    // within the epoch's timeline.
    std::vector<double> sample_end(num_links, 0);
    for (size_t j = 0; j < ep.events.size(); ++j) {
      const obs::Event& e = ep.events[j];
      const std::string where =
          " in event " + std::to_string(j) + at;
      switch (e.kind) {
        case obs::Event::Kind::kSpan: {
          if (e.step >= ep.steps || e.src < 0 ||
              static_cast<uint32_t>(e.src) >= ep.workers) {
            return Violation("obs/event-shape",
                             "span outside the epoch shape" + where);
          }
          if (!phase_known(e.phase)) {
            return Violation("obs/event-shape",
                             std::string("phase '") +
                                 obs::PhaseName(e.phase) + "' outside the " +
                                 ep.sim + " vocabulary" + where);
          }
          if (!(e.dur >= 0) || !std::isfinite(e.dur) || !(e.t0 >= 0) ||
              !std::isfinite(e.t0) || !(e.bytes >= 0)) {
            return Violation("obs/event-time",
                             "span with a negative time or byte field" +
                                 where);
          }
          if (!(e.comm >= 0) || e.comm > e.dur) {
            return Violation("obs/event-time",
                             "span comm share outside [0, dur]" + where);
          }
          break;
        }
        case obs::Event::Kind::kFlow: {
          if (e.step >= ep.steps || e.src < 0 ||
              static_cast<uint32_t>(e.src) >= ep.workers || e.dst < -1 ||
              (e.dst >= 0 && static_cast<uint32_t>(e.dst) >= ep.workers)) {
            return Violation("obs/event-shape",
                             "flow endpoints outside the epoch shape" + where);
          }
          if (!phase_known(e.phase)) {
            return Violation("obs/event-shape",
                             std::string("phase '") +
                                 obs::PhaseName(e.phase) + "' outside the " +
                                 ep.sim + " vocabulary" + where);
          }
          if (e.links.empty()) {
            return Violation("obs/event-shape",
                             "flow crossing no links" + where);
          }
          for (int l : e.links) {
            if (l < 0 || static_cast<size_t>(l) >= num_links) {
              return Violation("obs/event-shape",
                               "flow names link " + std::to_string(l) +
                                   " outside the declared fabric" + where);
            }
          }
          if (!std::isfinite(e.t0) || !std::isfinite(e.t1) ||
              !std::isfinite(e.t1_free) || e.t0 > e.t1_free ||
              e.t1_free > e.t1 || !(e.bytes >= 0)) {
            return Violation(
                "obs/event-time",
                "flow window not ordered t0 <= t1f <= t1" + where);
          }
          break;
        }
        case obs::Event::Kind::kSample: {
          if (e.link < 0 || static_cast<size_t>(e.link) >= num_links) {
            return Violation("obs/event-shape",
                             "sample names link " + std::to_string(e.link) +
                                 " outside the declared fabric" + where);
          }
          if (!std::isfinite(e.t0) || !std::isfinite(e.t1) || e.t0 > e.t1 ||
              !(e.rate >= 0) || !std::isfinite(e.rate)) {
            return Violation("obs/event-time",
                             "sample with a malformed interval or rate" +
                                 where);
          }
          if (e.flows < 1) {
            return Violation("obs/event-time",
                             "sample of an idle link (flows < 1)" + where);
          }
          double& cursor = sample_end[static_cast<size_t>(e.link)];
          if (e.t0 < cursor) {
            return Violation("obs/event-time",
                             "link " + std::to_string(e.link) +
                                 " samples overlap or run backwards" + where);
          }
          cursor = e.t1;
          break;
        }
        case obs::Event::Kind::kCache: {
          if (e.step >= ep.steps) {
            return Violation("obs/event-shape",
                             "cache record outside the epoch shape" + where);
          }
          break;
        }
      }
    }
  }
  return Status::Ok();
}

Status CheckEventAttribution(const obs::EventLog& log) {
  constexpr const char* kName = "obs/event-attribution";
  Result<trace::ExplainReport> rep_res = trace::ComputeExplain(log);
  if (!rep_res.ok()) {
    return Violation(kName, rep_res.status().message());
  }
  const trace::ExplainReport& rep = *rep_res;
  if (!std::isfinite(rep.total_seconds) ||
      !std::isfinite(rep.compute_seconds) ||
      !std::isfinite(rep.wait_seconds) ||
      !std::isfinite(rep.congestion_seconds) ||
      !std::isfinite(rep.migration_seconds)) {
    return Violation(kName, "non-finite attribution component");
  }
  if (rep.congestion_seconds < 0 || rep.compute_seconds < 0 ||
      rep.migration_seconds < 0) {
    return Violation(kName, "negative attribution component");
  }
  if (((rep.compute_seconds + rep.wait_seconds) + rep.congestion_seconds) +
          rep.migration_seconds !=
      rep.total_seconds) {
    return Violation(kName,
                     "components do not sum to the total bit-exactly");
  }
  const double tolerance = 1e-6 * std::max(1.0, rep.total_seconds);
  // In "serve" epochs the barrier wait also absorbs request queueing time
  // (zero everywhere else), so the cross-check target is their sum.
  const double expected_wait = rep.uncontended_comm_seconds + rep.queue_seconds;
  if (std::abs(rep.wait_seconds - expected_wait) > tolerance) {
    return Violation(kName,
                     "solved wait " + std::to_string(rep.wait_seconds) +
                         " disagrees with uncontended comm + queueing " +
                         std::to_string(expected_wait) +
                         " beyond FP grouping tolerance");
  }
  return Status::Ok();
}

}  // namespace check
}  // namespace gnnpart
