#include "overlay/routing.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "overlay/batch_probe.h"
#include "overlay/greedy_kernel.h"

namespace canon {

namespace {

// Process-wide batch window (see routing.h). Relaxed atomics: the knob is
// set once at startup (bench flag parsing) or between batches in tests —
// never mid-batch — so ordering carries no data.
std::atomic<int> g_probe_batch_width{kDefaultProbeBatchWidth};

/// NodeIds of `links`' neighbors of `node`, read from the CSR inline-id
/// array when the table captured it, else nullptr (caller falls back to
/// per-candidate net lookups — tables finalized without ids).
const NodeId* inline_ids_or_null(const LinkTable& links, NodeIndex node) {
  return links.has_inline_ids() ? links.neighbor_ids(node).data() : nullptr;
}

/// Greedy-with-lookahead core (Symphony §3.1): commits to the whole best
/// 2-step plan, recording one or two nodes per iteration.
template <typename Recorder>
RouteProbe ring_lookahead_core(const OverlayNetwork& net,
                               const LinkTable& links, int max_hops,
                               NodeIndex from, NodeId key,
                               Recorder&& record) {
  const IdSpace& space = net.space();
  NodeIndex current = from;
  int hops = 0;
  for (int step = 0; step < max_hops; ++step) {
    const NodeId cur_id = net.id(current);
    const std::uint64_t remaining = space.ring_distance(cur_id, key);
    // Evaluate all 1-step and 2-step plans that never overshoot and commit
    // to the whole plan with the smallest final remaining distance.
    NodeIndex best_v = current;
    NodeIndex best_w = current;  // == best_v for 1-step plans
    std::uint64_t best_final = remaining;
    const auto neighbors = links.neighbors(current);
    const NodeId* nb_ids = inline_ids_or_null(links, current);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const NodeIndex v = neighbors[j];
      const NodeId v_id = nb_ids ? nb_ids[j] : net.id(v);
      const std::uint64_t covered1 = space.ring_distance(cur_id, v_id);
      if (covered1 == 0 || covered1 > remaining) continue;
      const std::uint64_t after1 = remaining - covered1;
      if (after1 < best_final) {
        best_final = after1;
        best_v = v;
        best_w = v;
      }
      const auto second = links.neighbors(v);
      const NodeId* second_ids = inline_ids_or_null(links, v);
      for (std::size_t k = 0; k < second.size(); ++k) {
        const NodeId w_id = second_ids ? second_ids[k] : net.id(second[k]);
        const std::uint64_t covered2 = space.ring_distance(v_id, w_id);
        if (covered2 == 0 || covered2 > after1) continue;
        const std::uint64_t after2 = after1 - covered2;
        if (after2 < best_final) {
          best_final = after2;
          best_v = v;
          best_w = second[k];
        }
      }
    }
    if (best_v == current) {
      return {current, hops, current == net.responsible(key)};
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
  if (!links.finalized()) {
    throw std::invalid_argument(std::string(who) +
                                ": link table not finalized");
  }
}

RingRouter::RingRouter(const OverlayNetwork& net, const LinkTable& links)
    : net_(&net),
      links_(&links),
      max_hops_(hop_guard(net)),
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
      queries, out, *this, *links_,
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

void RingRouter::route_lookahead_into(NodeIndex from, NodeId key,
                                      Route& out) const {
  out.path.assign(1, from);
  out.ok = ring_lookahead_core(*net_, *links_, max_hops_, from, key,
                               detail::PathRecorder{&out.path})
               .ok;
}

RouteProbe RingRouter::probe_lookahead(NodeIndex from, NodeId key) const {
  return ring_lookahead_core(*net_, *links_, max_hops_, from, key,
                             detail::NullRecorder{});
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
      queries, out, *this, *links_,
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

}  // namespace canon
