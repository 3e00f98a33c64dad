#include "sim/distgnn_sim.h"

#include <algorithm>
#include <optional>

#include "check/check.h"
#include "gnn/costs.h"
#include "net/flowsim.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace gnnpart {

DistGnnWorkload BuildDistGnnWorkload(const Graph& graph,
                                     const EdgePartitionMetrics& metrics) {
  DistGnnWorkload w;
  w.k = static_cast<PartitionId>(metrics.edges_per_partition.size());
  w.graph_vertices = graph.num_vertices();
  w.graph_edges = graph.num_edges();
  w.edges = metrics.edges_per_partition;
  w.vertices = metrics.vertices_per_partition;
  w.synced_vertices = metrics.synced_vertices_per_partition;
  w.replication_factor = metrics.replication_factor;
  return w;
}

DistGnnWorkload BuildDistGnnWorkload(const Graph& graph,
                                     const EdgePartitioning& parts) {
  return BuildDistGnnWorkload(graph, ComputeEdgePartitionMetrics(graph, parts));
}

DistGnnEpochReport SimulateDistGnnEpoch(const DistGnnWorkload& workload,
                                        const GnnConfig& config,
                                        const ClusterSpec& cluster,
                                        const net::Fabric* fabric,
                                        net::LinkUsage* usage,
                                        obs::EventLog* events) {
  DistGnnEpochReport report;
  const PartitionId k = workload.k;
  report.machines.resize(k);

  // All communication is priced by gnnpart::net. Callers that pass no
  // fabric get the legacy one — the cluster's own bandwidth/latency on a
  // full-bisection switch — under which every charge below is bit-exactly
  // the pre-net closed form (see src/net/flowsim.h).
  std::optional<net::Fabric> local_fabric;
  if (fabric == nullptr) {
    local_fabric.emplace(net::NetworkConfig::FromCluster(cluster),
                         static_cast<int>(k));
    fabric = &*local_fabric;
  }
  GNNPART_CHECK_CHEAP(fabric->num_hosts() == static_cast<int>(k),
                      "distgnn: fabric host count != partition count");

  // Per layer: each machine's replica-sync egress, priced on the fabric.
  // The phase runs twice per layer in the real schedule (forward state
  // sync + backward gradient sync with the same volumes), so it is
  // simulated twice to keep the link-usage accounting honest; completions
  // are identical by determinism.
  const size_t sync_cells =
      static_cast<size_t>(config.num_layers) * static_cast<size_t>(k);
  std::vector<double> net_sync(sync_cells, 0);
  // Event sidecar: per layer the forward-sync and backward-sync phases'
  // flow and link-sample records (slots 2l and 2l+1) plus the optimizer's
  // (last slot); the replay below shifts their phase-local times onto the
  // BSP timeline. Nothing is allocated when no event log is attached.
  std::vector<std::vector<obs::Event>> phase_logs;
  if (events != nullptr) {
    phase_logs.resize(2 * static_cast<size_t>(config.num_layers) + 1);
  }
  for (int l = 0; l < config.num_layers; ++l) {
    const double dout = static_cast<double>(config.LayerOutputDim(l));
    net::PhaseSpec spec(k);
    for (PartitionId p = 0; p < k; ++p) {
      spec.bytes[p] = 2.0 *
                      static_cast<double>(workload.synced_vertices[p]) * dout *
                      sizeof(float);
      spec.rounds[p] = 2.0;
    }
    std::vector<obs::Event>* const fwd_log =
        events != nullptr ? &phase_logs[2 * static_cast<size_t>(l)] : nullptr;
    std::vector<obs::Event>* const bwd_log =
        events != nullptr ? &phase_logs[2 * static_cast<size_t>(l) + 1]
                          : nullptr;
    std::vector<double> done = net::SimulatePhase(*fabric, spec, usage, fwd_log);
    // Backward gradient sync: same volumes, completions identical by
    // determinism.
    net::SimulatePhase(*fabric, spec, usage, bwd_log);
    for (PartitionId p = 0; p < k; ++p) {
      net_sync[static_cast<size_t>(l) * k + p] = done[p];
    }
  }

  // Span sidecar: per-(layer, machine) compute and sync costs, captured by
  // the cost loop below and replayed onto the BSP timeline at the end.
  // Nothing is allocated when no event log is attached.
  const size_t layer_cells =
      events != nullptr
          ? static_cast<size_t>(config.num_layers) * static_cast<size_t>(k)
          : 0;
  std::vector<double> span_compute(layer_cells, 0);
  std::vector<double> span_sync(layer_cells, 0);
  std::vector<double> span_sync_bytes(layer_cells, 0);

  // Per layer, per machine: compute time and sync time; the epoch is a BSP
  // schedule with a barrier after each phase, so each phase contributes the
  // *maximum* over machines (the paper's straggler methodology).
  for (int l = 0; l < config.num_layers; ++l) {
    double fwd_compute_max = 0;
    double sync_max = 0;
    const double dout = static_cast<double>(config.LayerOutputDim(l));
    for (PartitionId p = 0; p < k; ++p) {
      LayerCost cost = ComputeLayerCost(
          config, l, static_cast<double>(workload.vertices[p]),
          static_cast<double>(workload.edges[p]));
      double compute =
          cost.aggregation_flops / cluster.aggregation_flops_per_second +
          cost.dense_flops / cluster.flops_per_second;
      // Replica synchronization after the layer: every replicated vertex
      // covered by p exchanges its dout-dimensional state (send + receive).
      // The time is the fabric's charge for that egress (uncontended NIC:
      // bytes/bandwidth + 2 latency rounds, the legacy closed form).
      double sync_bytes = 2.0 * static_cast<double>(workload.synced_vertices[p]) *
                          dout * sizeof(float);
      double sync = net_sync[static_cast<size_t>(l) * k + p];
      report.machines[p].compute_seconds += 3.0 * compute;  // fwd + bwd(2x)
      report.machines[p].network_seconds += 2.0 * sync;     // fwd + bwd
      report.machines[p].network_bytes += 2.0 * sync_bytes;
      fwd_compute_max = std::max(fwd_compute_max, compute);
      sync_max = std::max(sync_max, sync);
      if (events != nullptr) {
        const size_t cell = static_cast<size_t>(l) * k + p;
        span_compute[cell] = compute;
        span_sync[cell] = sync;
        span_sync_bytes[cell] = sync_bytes;
      }
    }
    report.forward_seconds += fwd_compute_max + sync_max;
    // Backward: ~2x the compute of forward plus the same gradient sync.
    report.backward_seconds += 2.0 * fwd_compute_max + sync_max;
  }

  // Optimizer: gradient all-reduce of the model (ring: 2 * bytes) + step.
  // Every machine pushes 2 * params over its egress route(s); the epoch
  // waits for the slowest (on the legacy fabric all are equal and the sum
  // below is the pre-net closed form bit-exactly).
  double params = ModelParameterBytes(config);
  net::PhaseSpec opt_spec(k);
  for (PartitionId p = 0; p < k; ++p) {
    opt_spec.bytes[p] = 2.0 * params;
    opt_spec.rounds[p] = 2.0;
  }
  const std::vector<double> opt_net = net::SimulatePhase(
      *fabric, opt_spec, usage,
      events != nullptr ? &phase_logs.back() : nullptr);
  double opt_net_max = 0;
  for (PartitionId p = 0; p < k; ++p) {
    opt_net_max = std::max(opt_net_max, opt_net[p]);
  }
  report.optimizer_seconds =
      opt_net_max + params / sizeof(float) / cluster.flops_per_second;

  report.sync_seconds = 0;
  for (int l = 0; l < config.num_layers; ++l) {
    // Per-layer sync straggler for the breakdown, from the same fabric
    // charges as the epoch accounting above.
    double sync_max = 0;
    for (PartitionId p = 0; p < k; ++p) {
      sync_max = std::max(sync_max, net_sync[static_cast<size_t>(l) * k + p]);
    }
    report.sync_seconds += 2.0 * sync_max;
  }

  report.epoch_seconds =
      report.forward_seconds + report.backward_seconds + report.optimizer_seconds;

  // Memory: activations for covered vertices (stored per layer for the
  // backward pass), the local graph structure (CSR, both directions, plus
  // offsets — the "fixed amount of memory" of the paper's Section 4.3),
  // and model + gradients + optimizer state. The structure term is the
  // same for every edge-balanced partitioner, which is exactly why larger
  // feature sizes make good partitioners *relatively* more effective
  // (paper Fig. 10a).
  // Model parameters are deliberately excluded: at the paper's scale the
  // model is ~0.1% of the vertex state, but our graphs are ~500x smaller
  // while the model is not, so including it here would distort the
  // footprint *ratios* the paper reports (Figs. 9-11).
  double max_mem = 0;
  double sum_mem = 0;
  for (PartitionId p = 0; p < k; ++p) {
    double vertices = static_cast<double>(workload.vertices[p]);
    double mem = ActivationMemoryBytes(config, vertices);
    mem += static_cast<double>(workload.edges[p]) * 4.0 * sizeof(uint32_t);
    report.machines[p].memory_bytes = mem;
    max_mem = std::max(max_mem, mem);
    sum_mem += mem;
  }
  report.max_memory_bytes = max_mem;
  report.mean_memory_bytes = sum_mem / k;
  report.memory_balance = sum_mem > 0 ? max_mem / (sum_mem / k) : 0;
  report.out_of_memory = max_mem > cluster.memory_budget_bytes;
  for (PartitionId p = 0; p < k; ++p) {
    report.total_network_bytes += report.machines[p].network_bytes;
  }
  obs::Count("sim/distgnn/epochs_simulated", 1, "epochs");
  obs::Count("sim/distgnn/network_bytes",
             static_cast<uint64_t>(report.total_network_bytes), "bytes");
  if (report.out_of_memory) obs::Count("sim/distgnn/oom_epochs", 1, "epochs");

  if (events != nullptr) {
    // Replay the per-layer costs onto the BSP timeline: forward layers in
    // order (compute then sync, barrier at the per-machine maximum), the
    // backward pass in reverse layer order (compute at 2x, same gradient
    // sync), then the optimizer as one extra pseudo-step shared by all
    // machines. step = layer index; the optimizer uses step = num_layers.
    const uint32_t layers = static_cast<uint32_t>(config.num_layers);
    events->DeclareLinks(net::EventLinks(*fabric));
    events->BeginEpoch("distgnn", layers + 1, static_cast<uint32_t>(k), 1);
    double t = 0;
    // A sync phase's flow and link-sample records land at its begin `t`.
    auto emit_barrier = [&](uint32_t layer, obs::Phase phase, double scale,
                            const std::vector<double>& dur,
                            const std::vector<double>& bytes,
                            const std::vector<obs::Event>* log) {
      const size_t base = static_cast<size_t>(layer) * k;
      double barrier = 0;
      for (PartitionId p = 0; p < k; ++p) {
        barrier = std::max(barrier, scale * dur[base + p]);
      }
      for (PartitionId p = 0; p < k; ++p) {
        const double seconds = scale * dur[base + p];
        // Sync phases (those with a flow log) are all communication.
        events->AddSpan(layer, static_cast<int>(p), phase, t, seconds,
                        log != nullptr ? seconds : 0,
                        bytes.empty() ? 0 : bytes[base + p]);
      }
      if (log != nullptr) events->Append(*log, t, layer, phase);
      t += barrier;
    };
    const std::vector<double> no_bytes;
    for (uint32_t l = 0; l < layers; ++l) {
      emit_barrier(l, obs::Phase::kForwardCompute, 1.0, span_compute,
                   no_bytes, nullptr);
      emit_barrier(l, obs::Phase::kForwardSync, 1.0, span_sync,
                   span_sync_bytes, &phase_logs[2 * static_cast<size_t>(l)]);
    }
    for (uint32_t l = layers; l-- > 0;) {
      emit_barrier(l, obs::Phase::kBackwardCompute, 2.0, span_compute,
                   no_bytes, nullptr);
      emit_barrier(l, obs::Phase::kBackwardSync, 1.0, span_sync,
                   span_sync_bytes,
                   &phase_logs[2 * static_cast<size_t>(l) + 1]);
    }
    for (PartitionId p = 0; p < k; ++p) {
      // The all-reduce (network) part of the optimizer is its comm share;
      // the remainder of the span is the compute of the parameter step.
      // Bytes: the model gradient all-reduce (ring).
      events->AddSpan(layers, static_cast<int>(p), obs::Phase::kOptimizer, t,
                      report.optimizer_seconds, opt_net[p], 2.0 * params);
    }
    events->Append(phase_logs.back(), t, layers, obs::Phase::kOptimizer);
  }
  return report;
}

}  // namespace gnnpart
