// Greedy overlay routing (Section 2.2 of the paper).
//
// Routing in every Canon construction is plain greedy routing on the
// relevant metric over the union of a node's links; the hierarchical
// behaviour (intra-domain locality, inter-domain convergence) is emergent.
//
// * RingRouter: greedy clockwise, never overshooting the key. Terminates at
//   the key's responsible node (its closest predecessor). Also implements
//   Symphony's 1-step lookahead variant (Section 3.1).
// * XorRouter: greedy XOR-distance reduction (Kademlia/Kandy families).
//
// Both are thin shells over the one greedy kernel (overlay/greedy_kernel.h)
// that also drives the interleaved batch probe and the simulator's
// steppers, so every path of a family picks its next hop by the same rank
// and the same first-best tie rule.
//
// Failure recovery is part of each router, not a second router (the
// paper's leaf sets, Section 2.3): every family's router — these two,
// CanRouter, CanCanRouter and GroupRouter — has faulty route_into/probe
// overloads taking a FailureSet, a DropRoller and a FaultScratch
// (overlay/fault_plan.h). They skip dead neighbors, retry dropped forwards
// on the runner-up up to kRetryBudget times per hop and take the family's
// recovery path (the ring's leaf set of the next `leaf_set` successors at
// every level of a node's domain chain); ok then means the terminal is the
// key's live responsible node. With an empty FailureSet and inactive
// drops they run the fault-free walk itself, hop for hop.
#ifndef CANON_OVERLAY_ROUTING_H
#define CANON_OVERLAY_ROUTING_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace canon {

class DropRoller;
class FailureSet;
struct FaultScratch;
struct ResilientProbe;

/// The hop-by-hop trace of one routed query.
struct Route {
  std::vector<NodeIndex> path;  ///< node indices, source first
  bool ok = false;  ///< true if routing reached the correct destination

  int hops() const { return static_cast<int>(path.size()) - 1; }
  NodeIndex source() const { return path.front(); }
  NodeIndex terminal() const { return path.back(); }
};

/// Terminal-only outcome of a routed query: what probe-mode routing
/// returns, and what route_into/route imply hop-for-hop. For the same
/// (from, key) on the same structure, probe() and route() agree on every
/// field.
struct RouteProbe {
  NodeIndex terminal = 0;  ///< node the query stopped at
  int hops = 0;                ///< forwarding steps taken
  bool ok = false;             ///< reached the correct destination

  friend bool operator==(const RouteProbe&, const RouteProbe&) = default;
};

/// One lookup of a batch workload (lives here rather than in
/// query_engine.h so the routers' probe_batch entry points can name it).
struct Query {
  NodeIndex from = 0;      ///< source node index
  NodeId key = 0;          ///< target key

  friend bool operator==(const Query&, const Query&) = default;
};

/// Hop budget of every greedy router: routes in a correct structure
/// finish in O(log n) hops, far below 4·bits + 16; exceeding it means a
/// broken link table.
inline int hop_guard(const OverlayNetwork& net) {
  return 4 * net.space().bits() + 16;
}

/// Throws std::invalid_argument, prefixed by `who`, unless `links` was
/// built over exactly `net`'s node ids — the precondition of every router
/// and simulator that indexes the table by `net`'s node indices. Since
/// `net.ids()` ascend, it also guarantees that every row's inline ids
/// ascend, which the ring pick's predecessor search relies on
/// (overlay/greedy_kernel.h). O(n), paid once per router.
void require_routable(const OverlayNetwork& net, const LinkTable& links,
                      const char* who);

/// Hard cap on the interleaved batch window: lane state must stay small
/// enough to live in L1 while W outstanding CSR rows stream in.
inline constexpr int kMaxProbeBatchWidth = 64;

/// Default window. 8-16 lanes cover typical DRAM latency at one greedy
/// scan (~tens of ns) per lane per round; chosen by measurement on the
/// reference container (docs/PERFORMANCE.md "Memory-level parallelism").
inline constexpr int kDefaultProbeBatchWidth = 16;

/// Process-wide batch window for every probe_batch() entry point
/// (routers are stateless about it, like parallel thread count).
/// Width <= 0 selects the scalar per-query probe loop — the reference
/// the equivalence tests compare against; width 1 runs the interleaved
/// kernel with a single lane. Values above kMaxProbeBatchWidth clamp.
/// Results are byte-identical at every width by construction.
int probe_batch_width();
void set_probe_batch_width(int width);

// Hot-path contract shared by RingRouter / XorRouter (and GroupRouter in
// canon/proximity.h):
//
// * route(from, key)          — allocates a fresh Route, bumps the router's
//                               telemetry counters and emits trace-sink
//                               events. The single-query convenience path.
// * route_into(from, key, r)  — identical path/ok result written into the
//                               caller's Route, reusing its capacity. No
//                               telemetry, no trace events: safe to call
//                               concurrently from many threads on one
//                               const router (the batch QueryEngine's full
//                               mode).
// * probe(from, key)          — hop count + terminal only, no path storage
//                               at all. Same concurrency guarantee (the
//                               QueryEngine's mode when nobody needs
//                               paths).
//
// Callers of route_into/probe own their telemetry: the QueryEngine
// accumulates per-shard tallies and flushes them after its merge barrier
// (telemetry::Counter is a plain uint64_t and must never be shared across
// shards).
//
// The faulty overloads follow the same contract: every per-query input
// (FailureSet, DropRoller, FaultScratch) comes by argument, and they throw
// std::invalid_argument on a dead source.

/// Greedy clockwise routing for the Chord/Crescendo/Symphony families.
class RingRouter {
 public:
  /// `leaf_set` = successors remembered per hierarchy level for the faulty
  /// walk's fallback (paper: "each node maintains a list of successors at
  /// every level"); 0 routes on fingers alone.
  RingRouter(const OverlayNetwork& net, const LinkTable& links,
             int leaf_set = 4);

  /// Routes from node `from` towards `key`; stops at the first node none of
  /// whose neighbors can advance clockwise without overshooting the key.
  /// Route::ok is set iff that node is the key's responsible node.
  Route route(NodeIndex from, NodeId key) const;

  /// Greedy routing with a 1-step lookahead: examines neighbors' neighbors
  /// and takes the first step of the best 2-step plan (Symphony, §3.1).
  Route route_lookahead(NodeIndex from, NodeId key) const;

  /// Allocation-free variants: see the hot-path contract above.
  void route_into(NodeIndex from, NodeId key, Route& out) const;
  void route_lookahead_into(NodeIndex from, NodeId key, Route& out) const;
  RouteProbe probe(NodeIndex from, NodeId key) const;
  RouteProbe probe_lookahead(NodeIndex from, NodeId key) const;

  /// Memory-level-parallel probe: advances probe_batch_width() queries in
  /// lockstep, one greedy hop each per round, prefetching every lane's
  /// next CSR row before any row is scanned. out[i] is exactly
  /// probe(queries[i].from, queries[i].key) — same hops, terminal, ok —
  /// at every width; only the memory schedule differs. Falls back to the
  /// scalar probe loop when the width is <= 0 or the link table has no
  /// inline ids. Same concurrency guarantee as probe().
  /// Requires out.size() == queries.size().
  void probe_batch(std::span<const Query> queries,
                   std::span<RouteProbe> out) const;

  /// Faulty greedy clockwise routing from a live node (see the file
  /// comment): ok iff the terminal is live_responsible(key).
  ResilientProbe route_into(NodeIndex from, NodeId key,
                            const FailureSet& dead, DropRoller& drops,
                            FaultScratch& scratch, Route& out) const;
  ResilientProbe probe(NodeIndex from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, FaultScratch& scratch) const;

  /// Single-query faulty route (storage, examples, tests): fresh buffers,
  /// no message drops, no telemetry.
  Route route(NodeIndex from, NodeId key, const FailureSet& dead) const;

  /// The live node responsible for `key` (closest live predecessor).
  NodeIndex live_responsible(NodeId key, const FailureSet& dead) const;

  /// Attaches a trace sink receiving per-hop events (hierarchy level,
  /// candidates evaluated) for every subsequent route; nullptr detaches.
  /// Only route()/route_lookahead() emit events; the *_into/probe hot
  /// paths never do.
  void set_trace(telemetry::RouteTraceSink* sink) { sink_ = sink; }

 private:
  const OverlayNetwork* net_;
  const LinkTable* links_;
  int max_hops_;
  int leaf_set_;
  telemetry::RouteTraceSink* sink_ = nullptr;
  telemetry::Counter* routes_counter_;
  telemetry::Counter* hops_counter_;
  telemetry::Counter* failures_counter_;
};

/// Greedy XOR routing for the Kademlia/Kandy families.
class XorRouter {
 public:
  XorRouter(const OverlayNetwork& net, const LinkTable& links);

  /// Routes by strictly decreasing XOR distance to `key`. Route::ok is set
  /// iff the terminal node is the global XOR-closest node to the key.
  Route route(NodeIndex from, NodeId key) const;

  /// Allocation-free variants: see the hot-path contract above.
  void route_into(NodeIndex from, NodeId key, Route& out) const;
  RouteProbe probe(NodeIndex from, NodeId key) const;

  /// Interleaved batch probe; see RingRouter::probe_batch.
  void probe_batch(std::span<const Query> queries,
                   std::span<RouteProbe> out) const;

  /// Faulty XOR descent (see the file comment): per hop the live
  /// candidates are tried in order of XOR progress — the alpha-parallel
  /// lookup of Maymounkov & Mazières collapsed onto one message. ok iff the
  /// terminal is the live node XOR-closest to the key.
  ResilientProbe route_into(NodeIndex from, NodeId key,
                            const FailureSet& dead, DropRoller& drops,
                            FaultScratch& scratch, Route& out) const;
  ResilientProbe probe(NodeIndex from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, FaultScratch& scratch) const;

  /// Attaches a trace sink (see RingRouter::set_trace).
  void set_trace(telemetry::RouteTraceSink* sink) { sink_ = sink; }

 private:
  const OverlayNetwork* net_;
  const LinkTable* links_;
  int max_hops_;
  telemetry::RouteTraceSink* sink_ = nullptr;
  telemetry::Counter* routes_counter_;
  telemetry::Counter* hops_counter_;
  telemetry::Counter* failures_counter_;
};

}  // namespace canon

#endif  // CANON_OVERLAY_ROUTING_H
