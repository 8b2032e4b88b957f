// Batch query engine: the lookup-phase counterpart of the parallel
// construction pipeline (docs/PERFORMANCE.md).
//
// The evaluation fires 10^3..10^5 lookups per (nodes, levels) cell. The
// engine runs such a workload in three deterministic steps:
//
//   1. The workload itself is pre-generated from forked RNG streams:
//      query i draws from base.fork(i), so the (from, key) array is a pure
//      function of (network, seed) at every thread count.
//   2. Routing fans out over fixed shards of kQueryGrain queries via
//      parallel_for on a shared *read-only* router, using the
//      allocation-free hot paths (route_into reusing one scratch Route per
//      shard, or probe() when nobody needs paths). The plain, lookahead
//      and resilient batches share this one shard loop; a resilient batch
//      calls the router's faulty route_into/probe overloads
//      (overlay/routing.h) with one FaultScratch per shard.
//   3. Results accumulate into per-shard stats merged in fixed shard
//      order 0..S-1 after the barrier — float summation order is therefore
//      identical at every thread count, making every derived figure
//      byte-identical serial vs. parallel.
//
// Telemetry contract: the hot paths touch no telemetry (see
// overlay/routing.h). The engine tallies hops/failures into per-shard
// scratch and flushes the aggregate to the `query_engine.*` counters on
// the calling thread after the merge; a plain telemetry::Counter is never
// shared across shards. Attaching a trace sink (set_trace) forces the
// whole batch onto one thread, since sinks observe a global event order.
#ifndef CANON_OVERLAY_QUERY_ENGINE_H
#define CANON_OVERLAY_QUERY_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "overlay/fault_plan.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "telemetry/load_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace canon {

// struct Query lives in overlay/routing.h (included above) so the
// routers' probe_batch entry points can name it without a cycle.

/// Pre-generates `count` queries, query i drawn from `base.fork(i)` by
/// `make(rng, i)`. Parallelized over fixed shards; the result depends only
/// on (base, make), never on the thread count.
std::vector<Query> generate_workload(
    std::size_t count, const Rng& base,
    const std::function<Query(Rng&, std::size_t)>& make);

/// The standard uniform workload: source uniform over nodes, key uniform
/// over the ID space (the draw order within each forked stream matches the
/// figure benches: source first, then key).
std::vector<Query> uniform_workload(const OverlayNetwork& net,
                                    std::size_t count, const Rng& base);

/// Hot-key workload: source uniform over nodes, key drawn Zipf(theta) from
/// a fixed pool of `key_pool` keys (default: one per node) whose rank
/// order and values derive from `base` — rank 0 is the hottest key. Like
/// uniform_workload the result is a pure function of (net, count, base,
/// theta, key_pool), byte-identical at every thread count.
std::vector<Query> zipf_workload(const OverlayNetwork& net, std::size_t count,
                                 const Rng& base, double theta = 1.25,
                                 std::size_t key_pool = 0);

/// Aggregated outcome of one batch. Mirrors what the serial benches
/// accumulated by hand: `hops` and `cost` summarize OK queries only
/// (failed routes historically never entered the figure Summaries), while
/// `total_hops` / `hops_by_level` count every hop taken, so
/// sum(hops_by_level) == total_hops whenever level tracking is on.
struct QueryStats {
  Summary hops;  ///< hop count per OK query
  Summary cost;  ///< path cost per OK query (iff a HopCost is set)
  std::vector<std::uint64_t> hops_by_level;  ///< index l = hops at LCA depth l
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  std::uint64_t total_hops = 0;

  std::uint64_t ok() const { return queries - failures; }

  /// Folds `other` in; shard merging calls this in fixed shard order.
  void merge(const QueryStats& other);
};

/// Outcome of one resilient batch: the plain QueryStats over attempted
/// queries (dead sources are skipped, not failed — they never entered the
/// network) plus the recovery-work tallies. With an empty FaultPlan,
/// `base` is field-identical to what run() returns on the same workload.
struct ResilientStats {
  QueryStats base;  ///< attempted queries only
  std::uint64_t skipped_dead_source = 0;
  std::uint64_t retries = 0;        ///< dropped forwarding attempts retried
  std::uint64_t fallback_hops = 0;  ///< hops taken via recovery paths

  std::uint64_t attempted() const { return base.queries; }

  /// Folds one attempted query in.
  void add(const ResilientProbe& p) {
    ++base.queries;
    base.total_hops += static_cast<std::uint64_t>(p.hops);
    if (p.ok) {
      base.hops.add(p.hops);
    } else {
      ++base.failures;
    }
    retries += static_cast<std::uint64_t>(p.retries);
    fallback_hops += static_cast<std::uint64_t>(p.fallback_hops);
  }

  /// ok / attempted (1.0 on an empty batch).
  double success_rate() const;

  /// ok / (attempted + skipped): a dead source counts against
  /// availability even though it never issued the query.
  double availability() const;

  /// Folds `other` in; shard merging calls this in fixed shard order.
  void merge(const ResilientStats& other);
};

/// Queries per shard: one lookup costs ~1µs at 64K nodes, so 256 amortize
/// the shard claim while a 4000-trial cell still yields ~16 shards. The
/// compile-time default behind the runtime knob below.
inline constexpr std::size_t kQueryGrain = 256;

/// Process-wide queries-per-shard knob (the benches' --grain flag).
/// Returns kQueryGrain until set; set_query_grain(0) resets to the
/// default, other values clamp to >= 1. The shard partition is a pure
/// function of (workload size, grain) — never of the thread count — so
/// any fixed grain yields byte-identical figures at every --threads;
/// different grains may legitimately differ in float-summation order.
std::size_t query_grain();
void set_query_grain(std::size_t grain);

/// See the file comment. One engine per overlay; routers are passed per
/// run() call and only read.
class QueryEngine {
 public:
  explicit QueryEngine(const OverlayNetwork& net);

  /// Adds per-query path cost to QueryStats::cost (disables probe mode:
  /// costs need the hop-by-hop path). Pass nullptr to clear.
  void set_cost(HopCost cost) { cost_ = std::move(cost); }

  /// Tallies hops by the LCA depth of their endpoints into
  /// QueryStats::hops_by_level (disables probe mode).
  void set_level_tracking(bool on) { level_tracking_ = on; }

  /// Attaches a sink receiving the familiar begin/on_hop/end event stream
  /// for every query. Forces the batch onto the calling thread in workload
  /// order. Engine-emitted HopRecords carry from/to/hop_index/level;
  /// `candidates` is left 0 (the engine has no link table — use a router's
  /// own set_trace for candidate counts). nullptr detaches.
  void set_trace(telemetry::RouteTraceSink* sink) { sink_ = sink; }

  /// Attaches an event journal: run_resilient records every crash/revive
  /// its FaultPlan materializes (before any query routes). nullptr
  /// detaches.
  void set_journal(telemetry::EventJournal* journal) { journal_ = journal; }

  /// Attaches a load accountant (telemetry/load_stats.h): every routed
  /// query's path is tallied into per-shard scratch and merged into the
  /// accountant in fixed shard order after the batch — load reports are
  /// therefore byte-identical at every thread count. Disables probe mode
  /// (accounting needs the hop-by-hop path). nullptr detaches.
  void set_load(telemetry::LoadAccountant* load) { load_ = load; }

  /// Runs the batch through any family's router (RingRouter, XorRouter,
  /// GroupRouter, CanRouter, CanCanRouter) via its route_into/probe hot
  /// paths. When `per_query` is given it receives one RouteProbe per
  /// query, in workload order. Routers exposing probe_batch (the
  /// memory-level-parallel kernels) are picked up transparently: probe
  /// mode then routes whole shards through the interleaved kernel — same
  /// results, fewer stalls.
  template <typename Router>
  QueryStats run(std::span<const Query> queries, const Router& router,
                 std::vector<RouteProbe>* per_query = nullptr) const {
    return run_shards(
               queries, nullptr, per_query,
               [&router](std::size_t, const Query& q, FaultScratch&,
                         Route* path) {
                 if (!path) return plain(router.probe(q.from, q.key));
                 router.route_into(q.from, q.key, *path);
                 return plain(*path);
               },
               [&router](std::span<const Query> q,
                         std::vector<RouteProbe>& out) {
                 if constexpr (requires { router.probe_batch(q, out); }) {
                   out.resize(q.size());
                   router.probe_batch(q, out);
                   return true;
                 }
                 return false;
               })
        .base;
  }

  /// Same, through RingRouter's lookahead variant.
  QueryStats run_lookahead(std::span<const Query> queries,
                           const RingRouter& router,
                           std::vector<RouteProbe>* per_query = nullptr) const {
    return run_shards(
               queries, nullptr, per_query,
               [&router](std::size_t, const Query& q, FaultScratch&,
                         Route* path) {
                 if (!path) {
                   return plain(router.probe_lookahead(q.from, q.key));
                 }
                 router.route_lookahead_into(q.from, q.key, *path);
                 return plain(*path);
               },
               no_batch_kernel)
        .base;
  }

  /// The resilient batch mode: materializes `plan` once (journaling its
  /// crash/revive events when a journal is attached) and runs the batch
  /// through the router's faulty route_into/probe overloads (see
  /// overlay/routing.h). Dead-source queries are skipped (per_query gets
  /// {from, 0, false}); each attempted query i derives its drop stream
  /// from plan.drop_seed() forked by i, so results — like the plain
  /// batch's — are byte-identical at every thread count. The
  /// query_engine.resilient_* counters are flushed only for a non-empty
  /// plan, keeping empty-plan reports byte-identical to run()'s.
  template <typename Router>
  ResilientStats run_resilient(std::span<const Query> queries,
                               const Router& router, const FaultPlan& plan,
                               std::vector<RouteProbe>* per_query =
                                   nullptr) const {
    const FailureSet dead = plan.materialize(*net_, journal_);
    return run_resilient_with(queries, router, dead, plan, per_query);
  }

  /// Same, over an already-materialized FailureSet (callers that audit or
  /// journal the dead set themselves).
  template <typename Router>
  ResilientStats run_resilient_with(std::span<const Query> queries,
                                    const Router& router,
                                    const FailureSet& dead,
                                    const FaultPlan& plan,
                                    std::vector<RouteProbe>* per_query =
                                        nullptr) const {
    const Rng drop_base(plan.drop_seed());
    const double drop_p = plan.drop_probability();
    const ResilientStats out = run_shards(
        queries, &dead, per_query,
        [&](std::size_t i, const Query& q, FaultScratch& scratch,
            Route* path) {
          DropRoller drops(drop_p, drop_base.fork(i));
          return path ? router.route_into(q.from, q.key, dead, drops, scratch,
                                          *path)
                      : router.probe(q.from, q.key, dead, drops, scratch);
        },
        no_batch_kernel);
    if (!plan.empty()) flush_resilient_counters(out);
    return out;
  }

 private:
  /// Per-shard outputs of one batch, folded by finish_batch in fixed
  /// shard order.
  struct ShardOutputs {
    std::vector<ResilientStats> stats;
    /// One per shard iff a LoadAccountant is attached.
    std::vector<telemetry::LoadAccountant::Shard> load;
    /// One per shard iff a MemoryAccountant is installed.
    std::vector<std::uint64_t> scratch_bytes;
  };

  static ResilientProbe plain(const RouteProbe& p) {
    return {p.terminal, p.hops, p.ok};
  }
  static ResilientProbe plain(const Route& r) {
    return {r.terminal(), r.hops(), r.ok};
  }

  /// The route_shard of a router without an interleaved batch kernel.
  static bool no_batch_kernel(std::span<const Query>,
                              std::vector<RouteProbe>&) {
    return false;
  }

  /// The one shard loop behind run(), run_lookahead() and
  /// run_resilient_with(). Fans fixed shards of query_grain() queries over
  /// parallel_for (or runs them in order on the calling thread when a
  /// trace sink is attached), with one Route, FaultScratch and batch
  /// buffer per shard whose capacity is reused across its queries.
  /// Queries whose source is in `dead` (if given) are skipped.
  ///
  /// Probe mode (no path recorded at all) is used iff nothing needs paths:
  /// no cost fn, no level tracking, no sink, no load accountant. In probe
  /// mode `route_shard(shard, out)` may route the whole shard up front
  /// through an interleaved kernel, resizing `out` and returning true
  /// (out[i] must equal the per-query probe); else `route_one(i, q,
  /// scratch, path)` routes query i — into `*path` when non-null,
  /// terminal-only otherwise. The stats loop drains either in query order,
  /// so every accumulation is the same on every path.
  template <typename RouteOne, typename RouteShard>
  ResilientStats run_shards(std::span<const Query> queries,
                            const FailureSet* dead,
                            std::vector<RouteProbe>* per_query,
                            RouteOne&& route_one,
                            RouteShard&& route_shard) const {
    const std::size_t n = queries.size();
    const std::size_t grain = query_grain();
    const std::size_t shards = (n + grain - 1) / grain;
    if (per_query) per_query->assign(n, RouteProbe{});
    const bool use_probe =
        !cost_ && !level_tracking_ && sink_ == nullptr && load_ == nullptr;
    ShardOutputs outs = begin_batch(shards);
    for_each_shard(shards, [&](std::size_t s) {
      ResilientStats& stats = outs.stats[s];
      telemetry::LoadAccountant::Shard* load_shard =
          outs.load.empty() ? nullptr : &outs.load[s];
      Route path;
      FaultScratch scratch;
      std::vector<RouteProbe> batch_out;
      const std::size_t begin = s * grain;
      const std::size_t end = std::min(n, begin + grain);
      const bool batched =
          use_probe && route_shard(queries.subspan(begin, end - begin),
                                   batch_out);
      for (std::size_t i = begin; i < end; ++i) {
        const Query& q = queries[i];
        if (dead && dead->dead(q.from)) {
          ++stats.skipped_dead_source;
          if (per_query) (*per_query)[i] = RouteProbe{q.from, 0, false};
          continue;
        }
        ResilientProbe p;
        if (batched) {
          p = plain(batch_out[i - begin]);
        } else if (use_probe) {
          p = route_one(i, q, scratch, nullptr);
        } else {
          p = route_one(i, q, scratch, &path);
          observe_route(q, path, stats.base, load_shard);
        }
        stats.add(p);
        if (per_query) (*per_query)[i] = p.to_probe();
      }
      if (!outs.scratch_bytes.empty()) {
        outs.scratch_bytes[s] = scratch_bytes(path, scratch, batch_out);
      }
    });
    return finish_batch(outs);
  }

  /// Sizes the per-shard outputs for `shards` shards.
  ShardOutputs begin_batch(std::size_t shards) const;

  /// Runs fn(s) for every shard s: in order on the calling thread when a
  /// sink is attached (sinks observe one global event order), else over
  /// parallel_for.
  void for_each_shard(std::size_t shards,
                      const std::function<void(std::size_t)>& fn) const;

  /// The bytes one shard's buffers hold after its last query.
  static std::uint64_t scratch_bytes(const Route& path,
                                     const FaultScratch& scratch,
                                     const std::vector<RouteProbe>& batch);

  /// After the barrier, on the calling thread: merges the shard stats and
  /// load shards in fixed shard order, charges the shards' scratch to the
  /// `query.scratch` memory tag and flushes the query_engine.* counters.
  ResilientStats finish_batch(const ShardOutputs& outs) const;

  /// The path-dependent tallies of full (non-probe) mode: level tracking,
  /// path cost, trace replay, load accounting (into `load_shard` when a
  /// LoadAccountant is attached).
  void observe_route(const Query& q, const Route& route, QueryStats& stats,
                     telemetry::LoadAccountant::Shard* load_shard) const;

  /// Post-merge flush of the query_engine.resilient_* counters. Looked up
  /// lazily so the names never register — and never surface in metric
  /// reports — unless a faulty batch actually ran.
  void flush_resilient_counters(const ResilientStats& stats) const;

  const OverlayNetwork* net_;
  HopCost cost_;
  bool level_tracking_ = false;
  telemetry::RouteTraceSink* sink_ = nullptr;
  telemetry::EventJournal* journal_ = nullptr;
  telemetry::LoadAccountant* load_ = nullptr;
  telemetry::Counter* batches_counter_;
  telemetry::Counter* queries_counter_;
  telemetry::Counter* hops_counter_;
  telemetry::Counter* failures_counter_;
};

}  // namespace canon

#endif  // CANON_OVERLAY_QUERY_ENGINE_H
