// The flow engine as it stood before per-link crossing lists: every
// water-fill round scans the whole active set for the flows that cross the
// bottleneck. Kept verbatim as the reference that net::SimulateFlows is
// diff-tested against bit for bit (net_flowsim_oracle_test).
#include "flowsim_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "check/check.h"

namespace gnnpart {
namespace net {
namespace oracle {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Weighted max-min fair-share allocation (progressive water-filling) over
/// the active flows: a link's per-weight-unit share is capacity / (sum of
/// crossing flow weights), and a flow crossing the bottleneck receives
/// `share * weight`. Deterministic: the bottleneck link is the strict
/// minimum of capacity/weight-sum with ties broken on the lowest link
/// index, and flows are fixed in ascending active-set order.
///
/// Bit-exactness with the historical unweighted engine: with every weight
/// at 1.0 each weight sum is a sum of exact 1.0s — the same double the
/// integer flow count converts to — and `share * 1.0 == share`, so every
/// division, subtraction and assigned rate is bitwise the unweighted
/// arithmetic. The integer `nflows` count stays alongside the weight sums
/// as the crossing-flows guard so an emptied link is skipped exactly, not
/// via a residue-prone `wsum > 0` comparison.
void FairShareRates(const std::vector<Link>& links,
                    const std::vector<Flow>& flows,
                    const std::vector<size_t>& active,
                    std::vector<double>* rates, std::vector<double>* cap,
                    std::vector<int>* nflows, std::vector<double>* wsum,
                    std::vector<char>* assigned) {
  const size_t n = active.size();
  rates->assign(n, 0.0);
  cap->resize(links.size());
  nflows->assign(links.size(), 0);
  wsum->assign(links.size(), 0.0);
  for (size_t l = 0; l < links.size(); ++l) (*cap)[l] = links[l].capacity;
  for (size_t i = 0; i < n; ++i) {
    const Flow& f = flows[active[i]];
    for (int l : f.links) {
      ++(*nflows)[static_cast<size_t>(l)];
      (*wsum)[static_cast<size_t>(l)] += f.weight;
    }
  }
  assigned->assign(n, 0);
  size_t left = n;
  while (left > 0) {
    int bottleneck = -1;
    double fair = 0;
    for (size_t l = 0; l < links.size(); ++l) {
      if ((*nflows)[l] == 0) continue;
      const double share = (*cap)[l] / (*wsum)[l];
      if (bottleneck < 0 || share < fair) {
        bottleneck = static_cast<int>(l);
        fair = share;
      }
    }
    GNNPART_CHECK_CHEAP(bottleneck >= 0 && fair > 0,
                        "net/fair-share: no capacity left for active flows");
    for (size_t i = 0; i < n; ++i) {
      if ((*assigned)[i]) continue;
      const Flow& f = flows[active[i]];
      bool crosses = false;
      for (int l : f.links) {
        if (l == bottleneck) {
          crosses = true;
          break;
        }
      }
      if (!crosses) continue;
      (*rates)[i] = fair * f.weight;
      (*assigned)[i] = 1;
      --left;
      for (int l : f.links) {
        (*cap)[static_cast<size_t>(l)] -= fair * f.weight;
        --(*nflows)[static_cast<size_t>(l)];
        (*wsum)[static_cast<size_t>(l)] -= f.weight;
      }
    }
  }
}

}  // namespace

std::vector<double> SimulateFlows(const Fabric& fabric,
                                  const std::vector<Flow>& flows,
                                  LinkUsage* usage, PhaseLog* log) {
  const std::vector<Link>& links = fabric.links();
  const double latency = fabric.config().link_latency;
  std::vector<double> completion(flows.size(), 0.0);
  if (usage != nullptr) usage->EnsureShape(fabric);
  if (log != nullptr) log->flows.resize(flows.size());
  for (const Flow& f : flows) {
    GNNPART_CHECK_CHEAP(!f.links.empty(), "net/flow: flow without links");
    GNNPART_CHECK_CHEAP(f.bytes >= 0 && f.start >= 0 && f.latency_rounds >= 0,
                        "net/flow: negative bytes, start or rounds");
    GNNPART_CHECK_CHEAP(std::isfinite(f.weight) && f.weight > 0,
                        "net/flow: weight must be finite and positive");
    for (int l : f.links) {
      GNNPART_CHECK_CHEAP(l >= 0 && static_cast<size_t>(l) < links.size(),
                          "net/flow: link index out of range");
    }
  }

  // Arrival order: (start, flow index) — stable_sort keeps the index
  // tiebreak, so admission order is deterministic.
  std::vector<size_t> order(flows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return flows[a].start < flows[b].start;
  });

  // The flow's finish projection is anchor_t + remaining/rate; the anchor
  // moves ONLY when the fair-share rate changes (bitwise), so uncontended
  // flows keep anchor_t == start, remaining == bytes and finish exactly at
  // start + bytes/rate — the closed form (see flowsim.h).
  struct Anchor {
    double t = 0;
    double remaining = 0;
    double rate = 0;
  };
  std::vector<size_t> active;         // flow indices, admission order
  std::vector<Anchor> anchors;        // parallel to `active`
  std::vector<double> rates, cap;     // FairShareRates scratch
  std::vector<int> nflows;
  std::vector<double> wsum;
  std::vector<char> assigned;
  std::vector<char> link_active;
  std::vector<double> link_rate;      // per-interval sample scratch
  std::vector<uint64_t> link_flows;
  size_t next_arrival = 0;
  double now = 0.0;

  auto project = [&](size_t i) {
    const Anchor& a = anchors[i];
    return a.remaining <= 0 ? a.t : a.t + a.remaining / a.rate;
  };

  while (next_arrival < order.size() || !active.empty()) {
    if (active.empty()) {
      // Idle fabric: jump straight to the next arrival. Arrivals at or
      // before `now` were admitted at an earlier event, so time moves
      // forward (event-queue monotonicity).
      const double t0 = flows[order[next_arrival]].start;
      GNNPART_CHECK_CHEAP(t0 >= now, "net/event-monotonic: arrival in past");
      now = t0;
    }
    while (next_arrival < order.size() &&
           flows[order[next_arrival]].start <= now) {
      const size_t idx = order[next_arrival];
      active.push_back(idx);
      anchors.push_back({flows[idx].start, flows[idx].bytes, 0.0});
      ++next_arrival;
    }

    // Reallocate bandwidth; re-anchor only flows whose rate changed.
    FairShareRates(links, flows, active, &rates, &cap, &nflows, &wsum,
                   &assigned);
    for (size_t i = 0; i < active.size(); ++i) {
      Anchor& a = anchors[i];
      if (a.rate == rates[i]) continue;
      if (a.rate > 0) {
        a.remaining -= a.rate * (now - a.t);
        if (a.remaining < 0) a.remaining = 0;
      }
      a.t = now;
      a.rate = rates[i];
    }

    double t_finish = kInf;
    for (size_t i = 0; i < active.size(); ++i) {
      t_finish = std::min(t_finish, project(i));
    }
    const double t_arrive = next_arrival < order.size()
                                ? flows[order[next_arrival]].start
                                : kInf;
    const double t_next = std::min(t_finish, t_arrive);
    GNNPART_CHECK_CHEAP(t_next >= now && t_next < kInf,
                        "net/event-monotonic: next event not in the future");

    if ((usage != nullptr || log != nullptr) && t_next > now) {
      link_active.assign(links.size(), 0);
      for (size_t i = 0; i < active.size(); ++i) {
        for (int l : flows[active[i]].links) {
          link_active[static_cast<size_t>(l)] = 1;
        }
      }
      if (usage != nullptr) {
        const double dt = t_next - now;
        for (size_t l = 0; l < links.size(); ++l) {
          if (link_active[l]) usage->link_busy_seconds[l] += dt;
        }
      }
      if (log != nullptr) {
        // One utilization sample per active link per event interval, in
        // link-index order — the piecewise-constant rate profile the
        // explain engine derives peak/p99 utilization from.
        link_rate.assign(links.size(), 0.0);
        link_flows.assign(links.size(), 0);
        for (size_t i = 0; i < active.size(); ++i) {
          for (int l : flows[active[i]].links) {
            link_rate[static_cast<size_t>(l)] += anchors[i].rate;
            ++link_flows[static_cast<size_t>(l)];
          }
        }
        for (size_t l = 0; l < links.size(); ++l) {
          if (!link_active[l]) continue;
          log->samples.push_back({static_cast<int>(l), now, t_next,
                                  link_rate[l], link_flows[l]});
        }
      }
    }
    now = t_next;

    // Retire flows whose projection is due. The completion uses the flow's
    // own projection (not `now`) so the closed form survives bit-exactly.
    size_t kept = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      const double finish = project(i);
      if (finish <= now) {
        const size_t idx = active[i];
        completion[idx] = finish + flows[idx].latency_rounds * latency;
        if (log != nullptr) {
          // The solo rate is the min capacity over the flow's links —
          // exactly the fair share the water-filling assigns a lone flow,
          // so the closed form below matches the engine's completion
          // bitwise whenever the flow was never throttled (flowsim.h).
          double solo = kInf;
          for (int l : flows[idx].links) {
            solo = std::min(solo, links[static_cast<size_t>(l)].capacity);
          }
          FlowDetail& fd = log->flows[idx];
          fd.host = flows[idx].host;
          fd.dst = flows[idx].dst;
          fd.start = flows[idx].start;
          fd.bytes = flows[idx].bytes;
          fd.finish = completion[idx];
          fd.uncontended_finish = (flows[idx].start + flows[idx].bytes / solo) +
                                  flows[idx].latency_rounds * latency;
          fd.links = flows[idx].links;
        }
        if (usage != nullptr) {
          for (int l : flows[idx].links) {
            usage->link_bytes[static_cast<size_t>(l)] += flows[idx].bytes;
          }
          usage->host_egress_bytes[static_cast<size_t>(flows[idx].host)] +=
              flows[idx].bytes;
        }
        continue;
      }
      active[kept] = active[i];
      anchors[kept] = anchors[i];
      ++kept;
    }
    active.resize(kept);
    anchors.resize(kept);
  }
  if (usage != nullptr) usage->flows += flows.size();
  return completion;
}

}  // namespace oracle
}  // namespace net
}  // namespace gnnpart
