#include "net/flowsim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "check/check.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Flat state of one SimulateFlows run, indexed by *slot*. An admitted
/// flow takes a free slot and returns it when it retires, so the state is
/// sized by the peak number of concurrently active flows, not by the flow
/// count, and is reused across events. Every per-link crossing list and
/// every component's member list appends at admission and compacts in
/// place, so each stays in admission order, which FairShare's bit-exactness
/// rests on (DESIGN.md §10 "Event model").
///
/// The links are labelled once per call into connected components: two
/// links are joined when one flow crosses both. No flow spans two
/// components, so a component's water-fill, re-anchoring and finish times
/// involve only its own flows. An event recomputes the components whose
/// member set it changed (`dirty`) and reuses every other component's
/// rates, round count and earliest finish.
struct Engine {
  Engine(const std::vector<Link>& links, const std::vector<Flow>& flows,
         size_t max_route);

  size_t stride;  // longest route: slot q's links start at path[q*stride]
  // Per slot.
  std::vector<size_t> flow;  // index into the caller's flows
  std::vector<size_t> seq;   // admission sequence: position in arrival order
  std::vector<int> path;
  std::vector<size_t> path_len;
  std::vector<double> weight;
  std::vector<double> anchor_t;   // finish projection: anchor_t +
  std::vector<double> remaining;  //   remaining / rate, cached in `finish`
  std::vector<double> rate;
  std::vector<double> finish;
  std::vector<double> fill;  // the last water-fill's rate
  std::vector<char> assigned;
  std::vector<size_t> free_slots;
  size_t num_active = 0;
  // Per link.
  std::vector<std::vector<size_t>> crossing;  // active slots, admission order
  std::vector<double> cap;
  std::vector<double> wsum_base;  // left fold of weights over `crossing`
  std::vector<double> wsum;       // the water-fill's working copy
  std::vector<int> nflows;
  std::vector<char> stale;  // a retirement erased from the crossing list
  std::vector<int> comp_of;  // component id, -1 for links no flow crosses
  // Per component; its links, ascending, are
  // comp_links[comp_off[c], comp_off[c + 1]).
  std::vector<size_t> comp_off;
  std::vector<int> comp_links;
  std::vector<std::vector<size_t>> members;  // active slots, admission order
  std::vector<char> dirty;
  std::vector<uint64_t> comp_rounds;  // the last water-fill's round count
  std::vector<double> comp_finish;    // earliest member finish, kInf if none

  std::span<const int> Path(size_t q) const {
    return {path.data() + q * stride, path_len[q]};
  }
  std::span<const int> CompLinks(size_t c) const {
    return {comp_links.data() + comp_off[c], comp_off[c + 1] - comp_off[c]};
  }

  /// The anchored projection; re-evaluated only when the anchor moves.
  double Project(size_t q) const {
    return remaining[q] <= 0 ? anchor_t[q]
                             : anchor_t[q] + remaining[q] / rate[q];
  }

  /// Puts flow `idx` (admission sequence `s`) in a slot, a recycled one
  /// first, appends it to its component's members and to its links'
  /// crossing lists, and marks the component dirty. Extending a link's
  /// weight sum by the new weight is exactly the left fold's last step.
  void Admit(size_t idx, size_t s, const Flow& f) {
    size_t q;
    if (!free_slots.empty()) {
      q = free_slots.back();
      free_slots.pop_back();
    } else {
      q = flow.size();
      for (auto* v : {&weight, &anchor_t, &remaining, &rate, &finish, &fill}) {
        v->resize(q + 1);
      }
      flow.resize(q + 1);
      seq.resize(q + 1);
      path.resize((q + 1) * stride);
      path_len.resize(q + 1);
      assigned.resize(q + 1);
    }
    flow[q] = idx;
    seq[q] = s;
    std::copy(f.links.begin(), f.links.end(), path.begin() + q * stride);
    path_len[q] = f.links.size();
    weight[q] = f.weight;
    anchor_t[q] = f.start;
    remaining[q] = f.bytes;
    rate[q] = 0.0;
    finish[q] = Project(q);
    const size_t c =
        static_cast<size_t>(comp_of[static_cast<size_t>(f.links[0])]);
    members[c].push_back(q);
    dirty[c] = 1;
    ++num_active;
    for (int l : Path(q)) {
      crossing[static_cast<size_t>(l)].push_back(q);
      wsum_base[static_cast<size_t>(l)] += f.weight;
    }
  }

  /// Water-fills component `c`, re-anchors the members whose rate changed
  /// at `now`, and caches the round count and the earliest finish.
  void Recompute(size_t c, const std::vector<Link>& links, double now);
  uint64_t FairShare(size_t c, const std::vector<Link>& links);
  /// Moves the members of `c` whose projection is due by `now` to
  /// `*retired`, in admission order, and compacts the lists they leave.
  void Retire(size_t c, double now, std::vector<size_t>* retired);
};

Engine::Engine(const std::vector<Link>& links, const std::vector<Flow>& flows,
               size_t max_route)
    : stride(max_route),
      crossing(links.size()),
      cap(links.size()),
      wsum_base(links.size(), 0.0),
      wsum(links.size()),
      nflows(links.size()),
      stale(links.size(), 0),
      comp_of(links.size(), -1) {
  // Union-find over the flows' routes, then a counting sort of the crossed
  // links by component. Components are numbered in order of their lowest
  // link, and each lists its links ascending: the bottleneck tie order.
  std::vector<size_t> parent(links.size());
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&](size_t l) {
    while (parent[l] != l) l = parent[l] = parent[parent[l]];
    return l;
  };
  for (const Flow& f : flows) {
    const size_t root = find(static_cast<size_t>(f.links[0]));
    for (int l : f.links) {
      comp_of[static_cast<size_t>(l)] = 0;  // crossed; labelled below
      parent[find(static_cast<size_t>(l))] = root;
    }
  }
  std::vector<int> label(links.size(), -1);
  size_t count = 0;
  for (size_t l = 0; l < links.size(); ++l) {
    if (comp_of[l] < 0) continue;
    int& id = label[find(l)];
    if (id < 0) id = static_cast<int>(count++);
    comp_of[l] = id;
  }
  comp_off.assign(count + 1, 0);
  for (int c : comp_of) {
    if (c >= 0) ++comp_off[static_cast<size_t>(c) + 1];
  }
  std::partial_sum(comp_off.begin(), comp_off.end(), comp_off.begin());
  comp_links.resize(comp_off[count]);
  std::vector<size_t> cursor(comp_off.begin(), comp_off.end() - 1);
  for (size_t l = 0; l < links.size(); ++l) {
    if (comp_of[l] >= 0) {
      comp_links[cursor[static_cast<size_t>(comp_of[l])]++] =
          static_cast<int>(l);
    }
  }
  members.resize(count);
  dirty.assign(count, 0);
  comp_rounds.assign(count, 0);
  comp_finish.assign(count, kInf);
}

/// Weighted max-min fair-share allocation (progressive water-filling) over
/// component `c`'s members into `fill`: a link's per-weight-unit share is
/// capacity / (sum of crossing flow weights), and a flow crossing the
/// bottleneck receives `share * weight`. Deterministic: the bottleneck link
/// is the strict minimum of capacity/weight-sum with ties broken on the
/// lowest link index, and flows are fixed in ascending admission order.
/// Returns the number of water-fill rounds.
///
/// Each round walks only the bottleneck's crossing list; since a link's
/// list empties (nflows hits 0) the round it is the bottleneck, every list
/// is walked at most once per call. Lists are in admission order, so the
/// flows crossing the bottleneck are fixed, and each weight sum is
/// accumulated, in the order a scan of the whole active set would use.
/// The whole-fabric bottleneck sequence restricted to one component is the
/// sequence that component picks alone, so every `cap`/`wsum` operation
/// and every rate is bitwise that scan's (the reference engine in
/// tests/flowsim_oracle.cc), and the whole-fabric round count is the sum
/// of the components' counts.
///
/// Bit-exactness with the historical unweighted engine: with every weight
/// at 1.0 each weight sum is a sum of exact 1.0s — the same double the
/// integer flow count converts to — and `share * 1.0 == share`, so every
/// division, subtraction and assigned rate is bitwise the unweighted
/// arithmetic. The integer `nflows` count stays alongside the weight sums
/// as the crossing-flows guard so an emptied link is skipped exactly, not
/// via a residue-prone `wsum > 0` comparison.
uint64_t Engine::FairShare(size_t c, const std::vector<Link>& links) {
  const std::span<const int> comp = CompLinks(c);
  for (int i : comp) {
    const size_t l = static_cast<size_t>(i);
    cap[l] = links[l].capacity;
    nflows[l] = static_cast<int>(crossing[l].size());
    wsum[l] = wsum_base[l];
  }
  for (size_t q : members[c]) assigned[q] = 0;
  size_t left = members[c].size();
  uint64_t rounds = 0;
  while (left > 0) {
    ++rounds;
    int bottleneck = -1;
    double fair = 0;
    for (int l : comp) {
      if (nflows[static_cast<size_t>(l)] == 0) continue;
      const double share =
          cap[static_cast<size_t>(l)] / wsum[static_cast<size_t>(l)];
      if (bottleneck < 0 || share < fair) {
        bottleneck = l;
        fair = share;
      }
    }
    GNNPART_CHECK_CHEAP(bottleneck >= 0 && fair > 0,
                        "net/fair-share: no capacity left for active flows");
    for (size_t q : crossing[static_cast<size_t>(bottleneck)]) {
      if (assigned[q]) continue;
      fill[q] = fair * weight[q];
      assigned[q] = 1;
      --left;
      for (int l : Path(q)) {
        cap[static_cast<size_t>(l)] -= fair * weight[q];
        --nflows[static_cast<size_t>(l)];
        wsum[static_cast<size_t>(l)] -= weight[q];
      }
    }
  }
  return rounds;
}

void Engine::Recompute(size_t c, const std::vector<Link>& links, double now) {
  comp_rounds[c] = FairShare(c, links);
  double t_finish = kInf;
  for (size_t q : members[c]) {
    if (rate[q] != fill[q]) {
      if (rate[q] > 0) {
        remaining[q] -= rate[q] * (now - anchor_t[q]);
        if (remaining[q] < 0) remaining[q] = 0;
      }
      anchor_t[q] = now;
      rate[q] = fill[q];
      finish[q] = Project(q);
    }
    t_finish = std::min(t_finish, finish[q]);
  }
  comp_finish[c] = t_finish;
  dirty[c] = 0;
}

void Engine::Retire(size_t c, double now, std::vector<size_t>* retired) {
  std::vector<size_t>& list = members[c];
  size_t kept = 0;
  for (size_t q : list) {
    if (!(finish[q] <= now)) {
      list[kept++] = q;
      continue;
    }
    retired->push_back(q);
    for (int l : Path(q)) stale[static_cast<size_t>(l)] = 1;
  }
  num_active -= list.size() - kept;
  list.resize(kept);
  dirty[c] = 1;
  // A crossing-list entry is retired iff its projection is due — the
  // predicate that just retired it from the members. Freed slots are
  // reused only by the next event's admissions, after this. An erase
  // breaks the weight sum's append-only fold, so it is refolded.
  for (int i : CompLinks(c)) {
    const size_t l = static_cast<size_t>(i);
    if (!stale[l]) continue;
    stale[l] = 0;
    std::erase_if(crossing[l], [&](size_t q) { return finish[q] <= now; });
    double w = 0.0;
    for (size_t q : crossing[l]) w += weight[q];
    wsum_base[l] = w;
  }
}

}  // namespace

void LinkUsage::EnsureShape(const Fabric& fabric) {
  link_bytes.resize(fabric.links().size(), 0.0);
  link_busy_seconds.resize(fabric.links().size(), 0.0);
  host_egress_bytes.resize(static_cast<size_t>(fabric.num_hosts()), 0.0);
  host_offered_bytes.resize(static_cast<size_t>(fabric.num_hosts()), 0.0);
}

void LinkUsage::MergeFrom(const LinkUsage& other) {
  auto merge = [](std::vector<double>* into, const std::vector<double>& from) {
    if (into->size() < from.size()) into->resize(from.size(), 0.0);
    for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  };
  merge(&link_bytes, other.link_bytes);
  merge(&link_busy_seconds, other.link_busy_seconds);
  merge(&host_egress_bytes, other.host_egress_bytes);
  merge(&host_offered_bytes, other.host_offered_bytes);
  phases += other.phases;
  flows += other.flows;
}

std::vector<double> SimulateFlows(const Fabric& fabric,
                                  const std::vector<Flow>& flows,
                                  LinkUsage* usage, PhaseLog* log) {
  static const obs::Counter event_count =
      obs::GetCounter("net/flowsim/events", "events");
  static const obs::Counter round_count =
      obs::GetCounter("net/flowsim/fill_rounds", "rounds");
  const std::vector<Link>& links = fabric.links();
  const double latency = fabric.config().link_latency;
  std::vector<double> completion(flows.size(), 0.0);
  if (usage != nullptr) usage->EnsureShape(fabric);
  if (log != nullptr) log->flows.resize(flows.size());
  size_t max_route = 0;
  for (const Flow& f : flows) {
    max_route = std::max(max_route, f.links.size());
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
  Engine e(links, flows, max_route);
  std::vector<size_t> retired;
  size_t next_arrival = 0;
  double now = 0.0;
  uint64_t events = 0;
  uint64_t rounds = 0;

  while (next_arrival < order.size() || e.num_active > 0) {
    ++events;
    if (e.num_active == 0) {
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
      e.Admit(idx, next_arrival++, flows[idx]);
    }

    // Reallocate bandwidth in the components this event changed; every
    // other component keeps its rates, and its last round count still
    // counts, so `fill_rounds` keeps its whole-fabric meaning.
    double t_finish = kInf;
    for (size_t c = 0; c < e.members.size(); ++c) {
      if (e.dirty[c]) e.Recompute(c, links, now);
      rounds += e.comp_rounds[c];
      t_finish = std::min(t_finish, e.comp_finish[c]);
    }
    const double t_arrive = next_arrival < order.size()
                                ? flows[order[next_arrival]].start
                                : kInf;
    const double t_next = std::min(t_finish, t_arrive);
    GNNPART_CHECK_CHEAP(t_next >= now && t_next < kInf,
                        "net/event-monotonic: next event not in the future");

    if ((usage != nullptr || log != nullptr) && t_next > now) {
      // A link is busy over the interval iff some active flow crosses it.
      // Samples: one per active link per event interval, in link-index
      // order — the piecewise-constant rate profile the explain engine
      // derives peak/p99 utilization from.
      for (size_t l = 0; l < links.size(); ++l) {
        const std::vector<size_t>& list = e.crossing[l];
        if (list.empty()) continue;
        if (usage != nullptr) usage->link_busy_seconds[l] += t_next - now;
        if (log != nullptr) {
          double link_rate = 0.0;
          for (size_t q : list) link_rate += e.rate[q];
          log->samples.push_back(
              {static_cast<int>(l), now, t_next, link_rate, list.size()});
        }
      }
    }
    now = t_next;

    // Retire flows whose projection is due, from the components whose
    // earliest finish is. Retirees of several components are merged back
    // into admission order, the order `LinkUsage` sums in: a host's flows
    // can sit in several components (a ring host's cw and ccw routes). The
    // completion uses the flow's own projection (not `now`) so the closed
    // form survives bit-exactly.
    retired.clear();
    for (size_t c = 0; c < e.members.size(); ++c) {
      if (e.comp_finish[c] <= now) e.Retire(c, now, &retired);
    }
    std::sort(retired.begin(), retired.end(),
              [&](size_t a, size_t b) { return e.seq[a] < e.seq[b]; });
    for (size_t q : retired) {
      e.free_slots.push_back(q);
      const size_t idx = e.flow[q];
      completion[idx] = e.finish[q] + flows[idx].latency_rounds * latency;
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
    }
  }
  if (usage != nullptr) usage->flows += flows.size();
  event_count.Add(events);
  round_count.Add(rounds);
  return completion;
}

size_t AppendHostFlows(const Fabric& fabric, int host, double start,
                       double bytes, double rounds, double weight,
                       std::vector<Flow>* flows) {
  if (bytes <= 0) return 0;
  const std::vector<Route>& routes = fabric.HostRoutes(host);
  const uint32_t host_weight = fabric.HostWeight(host);
  const size_t before = flows->size();
  double split = 0;
  for (size_t r = 0; r < routes.size(); ++r) {
    // The last route takes the remainder, so the host's flow bytes sum
    // to `bytes` exactly — and a single-route host (every host on
    // full-bisection) carries its bytes unsplit.
    double share;
    if (r + 1 == routes.size()) {
      share = bytes - split;
      if (share < 0) share = 0;
    } else {
      share = bytes * routes[r].weight / host_weight;
      split += share;
    }
    if (share <= 0) continue;
    Flow flow;
    flow.host = host;
    flow.dst = routes[r].dst;
    flow.start = start;
    flow.bytes = share;
    flow.latency_rounds = rounds;
    flow.weight = weight;
    flow.links = routes[r].links;
    flows->push_back(std::move(flow));
  }
  return flows->size() - before;
}

std::vector<double> SimulatePhase(const Fabric& fabric, const PhaseSpec& spec,
                                  LinkUsage* usage, PhaseLog* log) {
  const size_t hosts = static_cast<size_t>(fabric.num_hosts());
  GNNPART_CHECK_CHEAP(spec.start.size() == hosts &&
                          spec.bytes.size() == hosts &&
                          spec.rounds.size() == hosts,
                      "net/phase: spec shape does not match the fabric");
  static const obs::Counter phase_count =
      obs::GetCounter("net/phases", "phases");
  static const obs::Counter flow_count = obs::GetCounter("net/flows", "flows");
  const double latency = fabric.config().link_latency;
  std::vector<double> completion(hosts, 0.0);
  if (usage != nullptr) {
    usage->EnsureShape(fabric);
    ++usage->phases;
  }

  std::vector<Flow> flows;
  std::vector<std::pair<size_t, size_t>> flow_range(hosts, {0, 0});
  for (size_t h = 0; h < hosts; ++h) {
    if (usage != nullptr) usage->host_offered_bytes[h] += spec.bytes[h];
    // Floor charge: the serial offset plus the latency rounds. For zero
    // egress this is the whole cost — bitwise what the legacy closed form
    // (start + 0/B) + rounds*latency evaluates to — and the engine's
    // finish times can only meet or exceed it.
    completion[h] = spec.start[h] + spec.rounds[h] * latency;
    if (spec.bytes[h] <= 0) continue;
    flow_range[h].first = flows.size();
    AppendHostFlows(fabric, static_cast<int>(h), spec.start[h], spec.bytes[h],
                    spec.rounds[h], /*weight=*/1.0, &flows);
    flow_range[h].second = flows.size();
  }

  const std::vector<double> finish = SimulateFlows(fabric, flows, usage, log);
  for (size_t h = 0; h < hosts; ++h) {
    for (size_t i = flow_range[h].first; i < flow_range[h].second; ++i) {
      completion[h] = std::max(completion[h], finish[i]);
    }
  }
  phase_count.Inc();
  flow_count.Add(flows.size());
  return completion;
}

double UncontendedFinish(const Fabric& fabric, double start, double bytes,
                         double rounds) {
  const NetworkConfig& config = fabric.config();
  return (start + bytes / config.nic_bandwidth) + rounds * config.link_latency;
}

double PhaseBarrierSeconds(const Fabric& fabric, const PhaseSpec& spec,
                           LinkUsage* usage) {
  const std::vector<double> completion = SimulatePhase(fabric, spec, usage);
  double barrier = 0;
  for (double t : completion) barrier = std::max(barrier, t);
  return barrier;
}

}  // namespace net
}  // namespace gnnpart
