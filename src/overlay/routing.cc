#include "overlay/routing.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

#include "overlay/batch_probe.h"
#include "overlay/greedy_kernel.h"

namespace canon {

namespace {

// Process-wide batch window (see routing.h). Relaxed atomics: the knob is
// set once at startup (bench flag parsing) or between batches in tests —
// never mid-batch — so ordering carries no data.
std::atomic<int> g_probe_batch_width{kDefaultProbeBatchWidth};

/// Greedy-with-lookahead core (Symphony §3.1): commits to the whole best
/// 2-step plan, recording one or two nodes per iteration. A plan ranks by
/// where it ends in the greedy ring rank, and each of its steps must lower
/// that rank, as a plain greedy hop does.
template <typename Recorder>
RouteProbe ring_lookahead_core(const detail::RingMetric& metric,
                               const LinkTable& links, int max_hops,
                               NodeIndex from, NodeId key,
                               Recorder&& record) {
  const OverlayNetwork& net = *metric.net;
  NodeIndex current = from;
  int hops = 0;
  for (int step = 0; step < max_hops; ++step) {
    const std::uint64_t remaining = metric.rank(net.id(current), key);
    // Evaluate all 1-step and 2-step plans and commit to the whole plan
    // with the smallest final rank.
    NodeIndex best_v = current;
    NodeIndex best_w = current;  // == best_v for 1-step plans
    std::uint64_t best_final = remaining;
    const auto row = links.neighbors(current);
    const auto ids = links.neighbor_ids(current);
    // Only ids in the clockwise interval (current, key] progress. The row
    // ascends by id, so they sit at [lo, hi), or at [0, hi) and [lo, size)
    // when the interval wraps past zero. Plans are weighed in ascending j:
    // that order breaks ties between plans ending at the same node.
    const auto first_above = [&](NodeId x) {
      return static_cast<std::size_t>(
          std::upper_bound(ids.begin(), ids.end(), x) - ids.begin());
    };
    const NodeId cur_id = net.id(current);
    const NodeId k = key & metric.mask;
    const std::size_t lo = first_above(cur_id);
    const std::size_t hi = first_above(k);
    const bool wraps = cur_id > k;
    const std::pair<std::size_t, std::size_t> spans[] = {
        {wraps ? 0 : lo, hi}, {lo, wraps ? row.size() : lo}};
    for (const auto& [begin, end] : spans) {
      for (std::size_t j = begin; j < end; ++j) {
        const NodeIndex v = row[j];
        const std::uint64_t after1 = metric.rank(ids[j], key);
        if (after1 < best_final) {
          best_final = after1;
          best_v = v;
          best_w = v;
        }
        // best_final <= after1 now, so the second step lowers both.
        const detail::Pick w =
            metric.best_in_row(key, best_final, links.neighbor_ids(v));
        if (w.index != detail::kNoWinner) {
          best_final = w.rank;
          best_v = v;
          best_w = links.neighbors(v)[w.index];
        }
      }
    }
    if (best_v == current) {
      return {current, hops, current == metric.terminal(key)};
    }
    record(best_v);
    ++hops;
    if (best_w != best_v) {
      record(best_w);
      ++hops;
    }
    current = best_w;
  }
  return {current, hops, false};
}

/// Telemetry epilogue of the single-query route() paths: bumps the
/// route/hop/failure counters and, when a sink is attached, replays the
/// completed path as begin/on_hop*/end events. The replayed records are
/// field-identical to what the pre-refactor inline emission produced: a
/// hop's `candidates` is the out-degree of its `from` node and its level
/// the endpoints' LCA depth, both recomputable from the path.
void finish_route(const Route& r, NodeId key, const OverlayNetwork& net,
                  const LinkTable& links, telemetry::Counter* routes,
                  telemetry::Counter* hops, telemetry::Counter* failures,
                  telemetry::RouteTraceSink* sink) {
  if (routes) {
    routes->inc();
    hops->inc(static_cast<std::uint64_t>(r.hops()));
    if (!r.ok) failures->inc();
  }
  if (!sink) return;
  const std::uint64_t trace_id = sink->begin_lookup(r.source(), key);
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    telemetry::HopRecord hop;
    hop.lookup = trace_id;
    hop.from = r.path[i];
    hop.to = r.path[i + 1];
    hop.hop_index = static_cast<int>(i);
    hop.level = net.lca_level(r.path[i], r.path[i + 1]);
    hop.candidates =
        static_cast<std::uint32_t>(links.neighbors(r.path[i]).size());
    sink->on_hop(hop);
  }
  sink->end_lookup(trace_id, r.ok, r.terminal());
}

}  // namespace

int probe_batch_width() {
  return g_probe_batch_width.load(std::memory_order_relaxed);
}

void set_probe_batch_width(int width) {
  g_probe_batch_width.store(std::clamp(width, 0, kMaxProbeBatchWidth),
                            std::memory_order_relaxed);
}

void require_routable(const OverlayNetwork& net, const LinkTable& links,
                      const char* who) {
  if (links.node_count() != net.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": link table size mismatch");
  }
  const auto ids = links.ids();
  if (!std::equal(ids.begin(), ids.end(), net.ids().begin())) {
    throw std::invalid_argument(std::string(who) +
                                ": link table built over other node ids");
  }
}

RingRouter::RingRouter(const OverlayNetwork& net, const LinkTable& links,
                       int leaf_set)
    : net_(&net),
      links_(&links),
      max_hops_(hop_guard(net)),
      leaf_set_(leaf_set),
      routes_counter_(telemetry::maybe_counter("ring_router.routes")),
      hops_counter_(telemetry::maybe_counter("ring_router.hops")),
      failures_counter_(telemetry::maybe_counter("ring_router.failures")) {
  require_routable(net, links, "RingRouter");
}

void RingRouter::route_into(NodeIndex from, NodeId key, Route& out) const {
  out.path.assign(1, from);
  out.ok = detail::greedy_walk(detail::RingMetric(*net_), *links_, max_hops_,
                               from, key, detail::NoFaults{},
                               detail::PathRecorder{&out.path})
               .ok;
}

RouteProbe RingRouter::probe(NodeIndex from, NodeId key) const {
  return detail::greedy_walk(detail::RingMetric(*net_), *links_, max_hops_,
                             from, key, detail::NoFaults{},
                             detail::NullRecorder{})
      .to_probe();
}

void RingRouter::probe_batch(std::span<const Query> queries,
                             std::span<RouteProbe> out) const {
  detail::probe_batch_with(
      queries, out, *this,
      detail::GreedyLane<detail::RingMetric>{detail::RingMetric(*net_),
                                             *links_, max_hops_});
}

Route RingRouter::route(NodeIndex from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  finish_route(r, key, *net_, *links_, routes_counter_, hops_counter_,
               failures_counter_, sink_);
  return r;
}

ResilientProbe RingRouter::route_into(NodeIndex from, NodeId key,
                                      const FailureSet& dead,
                                      DropRoller& drops, FaultScratch& scratch,
                                      Route& out) const {
  out.path.assign(1, from);
  const ResilientProbe p = detail::with_faults(
      from, {dead, drops, scratch, leaf_set_}, "RingRouter",
      [&](const auto& faults) {
        return detail::greedy_walk(detail::RingMetric(*net_), *links_,
                                   max_hops_, from, key, faults,
                                   detail::PathRecorder{&out.path});
      });
  out.ok = p.ok;
  return p;
}

ResilientProbe RingRouter::probe(NodeIndex from, NodeId key,
                                 const FailureSet& dead, DropRoller& drops,
                                 FaultScratch& scratch) const {
  return detail::with_faults(
      from, {dead, drops, scratch, leaf_set_}, "RingRouter",
      [&](const auto& faults) {
        return detail::greedy_walk(detail::RingMetric(*net_), *links_,
                                   max_hops_, from, key, faults,
                                   detail::NullRecorder{});
      });
}

Route RingRouter::route(NodeIndex from, NodeId key,
                        const FailureSet& dead) const {
  Route r;
  FaultScratch scratch;
  DropRoller drops;
  route_into(from, key, dead, drops, scratch, r);
  return r;
}

NodeIndex RingRouter::live_responsible(NodeId key,
                                       const FailureSet& dead) const {
  return detail::RingMetric(*net_).live_terminal(key, dead);
}

void RingRouter::route_lookahead_into(NodeIndex from, NodeId key,
                                      Route& out) const {
  out.path.assign(1, from);
  out.ok = ring_lookahead_core(detail::RingMetric(*net_), *links_, max_hops_,
                               from, key, detail::PathRecorder{&out.path})
               .ok;
}

RouteProbe RingRouter::probe_lookahead(NodeIndex from, NodeId key) const {
  return ring_lookahead_core(detail::RingMetric(*net_), *links_, max_hops_,
                             from, key, detail::NullRecorder{});
}

Route RingRouter::route_lookahead(NodeIndex from, NodeId key) const {
  Route r;
  route_lookahead_into(from, key, r);
  finish_route(r, key, *net_, *links_, routes_counter_, hops_counter_,
               failures_counter_, sink_);
  return r;
}

XorRouter::XorRouter(const OverlayNetwork& net, const LinkTable& links)
    : net_(&net),
      links_(&links),
      max_hops_(hop_guard(net)),
      routes_counter_(telemetry::maybe_counter("xor_router.routes")),
      hops_counter_(telemetry::maybe_counter("xor_router.hops")),
      failures_counter_(telemetry::maybe_counter("xor_router.failures")) {
  require_routable(net, links, "XorRouter");
}

void XorRouter::route_into(NodeIndex from, NodeId key, Route& out) const {
  out.path.assign(1, from);
  out.ok = detail::greedy_walk(detail::XorMetric(*net_), *links_, max_hops_,
                               from, key, detail::NoFaults{},
                               detail::PathRecorder{&out.path})
               .ok;
}

RouteProbe XorRouter::probe(NodeIndex from, NodeId key) const {
  return detail::greedy_walk(detail::XorMetric(*net_), *links_, max_hops_,
                             from, key, detail::NoFaults{},
                             detail::NullRecorder{})
      .to_probe();
}

void XorRouter::probe_batch(std::span<const Query> queries,
                            std::span<RouteProbe> out) const {
  detail::probe_batch_with(
      queries, out, *this,
      detail::GreedyLane<detail::XorMetric>{detail::XorMetric(*net_),
                                            *links_, max_hops_});
}

Route XorRouter::route(NodeIndex from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  finish_route(r, key, *net_, *links_, routes_counter_, hops_counter_,
               failures_counter_, sink_);
  return r;
}

ResilientProbe XorRouter::route_into(NodeIndex from, NodeId key,
                                     const FailureSet& dead, DropRoller& drops,
                                     FaultScratch& scratch, Route& out) const {
  out.path.assign(1, from);
  const ResilientProbe p = detail::with_faults(
      from, {dead, drops, scratch}, "XorRouter", [&](const auto& faults) {
        return detail::greedy_walk(detail::XorMetric(*net_), *links_,
                                   max_hops_, from, key, faults,
                                   detail::PathRecorder{&out.path});
      });
  out.ok = p.ok;
  return p;
}

ResilientProbe XorRouter::probe(NodeIndex from, NodeId key,
                                const FailureSet& dead, DropRoller& drops,
                                FaultScratch& scratch) const {
  return detail::with_faults(
      from, {dead, drops, scratch}, "XorRouter", [&](const auto& faults) {
        return detail::greedy_walk(detail::XorMetric(*net_), *links_,
                                   max_hops_, from, key, faults,
                                   detail::NullRecorder{});
      });
}

}  // namespace canon
