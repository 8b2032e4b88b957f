#include "overlay/query_engine.h"

#include <algorithm>
#include <atomic>

#include "common/parallel.h"
#include "common/zipf.h"
#include "telemetry/mem_stats.h"

namespace canon {

namespace {

// Runtime shard size (see query_grain() in the header). Relaxed atomics:
// set at startup or between batches, never mid-batch.
std::atomic<std::size_t> g_query_grain{kQueryGrain};

}  // namespace

std::size_t query_grain() {
  return g_query_grain.load(std::memory_order_relaxed);
}

void set_query_grain(std::size_t grain) {
  g_query_grain.store(grain == 0 ? kQueryGrain : grain,
                      std::memory_order_relaxed);
}

std::vector<Query> generate_workload(
    std::size_t count, const Rng& base,
    const std::function<Query(Rng&, std::size_t)>& make) {
  std::vector<Query> out(count);
  // Query i is a pure function of base.fork(i): any grain partitions the
  // same per-index work, so the workload is grain- and thread-invariant.
  parallel_for(count, query_grain(),
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   Rng q = base.fork(i);
                   out[i] = make(q, i);
                 }
               });
  return out;
}

std::vector<Query> uniform_workload(const OverlayNetwork& net,
                                    std::size_t count, const Rng& base) {
  const std::size_t n = net.size();
  const IdSpace& space = net.space();
  return generate_workload(count, base, [&](Rng& rng, std::size_t) {
    Query q;
    q.from = static_cast<NodeIndex>(rng.uniform(n));
    q.key = space.wrap(rng());
    return q;
  });
}

std::vector<Query> zipf_workload(const OverlayNetwork& net, std::size_t count,
                                 const Rng& base, double theta,
                                 std::size_t key_pool) {
  const std::size_t n = net.size();
  const IdSpace& space = net.space();
  if (key_pool == 0) key_pool = n;
  // The pool is drawn serially from a dedicated fork so its contents don't
  // depend on count or thread count; rank r holds the r-th draw.
  Rng pool_rng = base.fork(0x6b657973ULL);  // "keys"
  std::vector<NodeId> pool(key_pool);
  for (NodeId& key : pool) key = space.wrap(pool_rng());
  const ZipfSampler zipf(key_pool, theta);
  return generate_workload(count, base, [&](Rng& rng, std::size_t) {
    Query q;
    q.from = static_cast<NodeIndex>(rng.uniform(n));
    q.key = pool[zipf.sample(rng)];
    return q;
  });
}

void QueryStats::merge(const QueryStats& other) {
  hops.merge(other.hops);
  cost.merge(other.cost);
  if (other.hops_by_level.size() > hops_by_level.size()) {
    hops_by_level.resize(other.hops_by_level.size(), 0);
  }
  for (std::size_t l = 0; l < other.hops_by_level.size(); ++l) {
    hops_by_level[l] += other.hops_by_level[l];
  }
  queries += other.queries;
  failures += other.failures;
  total_hops += other.total_hops;
}

double ResilientStats::success_rate() const {
  return base.queries == 0
             ? 1.0
             : static_cast<double>(base.ok()) /
                   static_cast<double>(base.queries);
}

double ResilientStats::availability() const {
  const std::uint64_t total = base.queries + skipped_dead_source;
  return total == 0
             ? 1.0
             : static_cast<double>(base.ok()) / static_cast<double>(total);
}

void ResilientStats::merge(const ResilientStats& other) {
  base.merge(other.base);
  skipped_dead_source += other.skipped_dead_source;
  retries += other.retries;
  fallback_hops += other.fallback_hops;
}

QueryEngine::QueryEngine(const OverlayNetwork& net)
    : net_(&net),
      batches_counter_(telemetry::maybe_counter("query_engine.batches")),
      queries_counter_(telemetry::maybe_counter("query_engine.queries")),
      hops_counter_(telemetry::maybe_counter("query_engine.hops")),
      failures_counter_(telemetry::maybe_counter("query_engine.failures")) {}

QueryEngine::ShardOutputs QueryEngine::begin_batch(std::size_t shards) const {
  ShardOutputs outs;
  outs.stats.resize(shards);
  if (load_) outs.load.resize(shards);
  // Per-shard scratch footprint, recorded by the worker that ran the
  // shard (the shard's routes alone determine the final capacity) and
  // charged to the memory accountant on the calling thread after the
  // barrier, in fixed shard order.
  if (telemetry::mem_accountant()) outs.scratch_bytes.resize(shards);
  return outs;
}

void QueryEngine::for_each_shard(
    std::size_t shards, const std::function<void(std::size_t)>& fn) const {
  if (sink_) {
    // A sink observes one global event stream: keep workload order.
    for (std::size_t s = 0; s < shards; ++s) fn(s);
    return;
  }
  // grain 1: shard s of the index range IS query-shard s, so the
  // partition (and with it every accumulation order) is the same at every
  // thread count.
  parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) fn(s);
  });
}

std::uint64_t QueryEngine::scratch_bytes(
    const Route& path, const FaultScratch& scratch,
    const std::vector<RouteProbe>& batch) {
  return telemetry::vector_bytes(path.path) +
         telemetry::vector_bytes(scratch.banned) +
         telemetry::vector_bytes(scratch.leaf) +
         telemetry::vector_bytes(scratch.visited) +
         telemetry::vector_bytes(batch);
}

ResilientStats QueryEngine::finish_batch(const ShardOutputs& outs) const {
  ResilientStats out;
  for (const ResilientStats& s : outs.stats) out.merge(s);
  for (const auto& s : outs.load) load_->merge(s);
  if (!outs.scratch_bytes.empty()) {
    // Charge every shard's scratch together, then release: the tag's peak
    // records the concurrency-equivalent footprint (all shards resident at
    // once), which is what the figure would be at maximum parallelism —
    // and is a pure function of the shard partition, so byte-identical at
    // any --threads.
    telemetry::MemScope scope("query.scratch");
    for (const std::uint64_t bytes : outs.scratch_bytes) scope.add(bytes);
  }
  // Telemetry flush: aggregate only, on the calling thread, after the
  // barrier — no Counter is ever touched inside a shard.
  if (batches_counter_) batches_counter_->inc();
  if (queries_counter_) queries_counter_->inc(out.base.queries);
  if (hops_counter_) hops_counter_->inc(out.base.total_hops);
  if (failures_counter_) failures_counter_->inc(out.base.failures);
  return out;
}

void QueryEngine::observe_route(
    const Query& q, const Route& route, QueryStats& stats,
    telemetry::LoadAccountant::Shard* load_shard) const {
  if (load_shard) load_->observe(route.path, route.ok, q.key, *load_shard);
  if (level_tracking_) {
    for (std::size_t j = 0; j + 1 < route.path.size(); ++j) {
      const int level = net_->lca_level(route.path[j], route.path[j + 1]);
      if (level < 0) continue;
      if (static_cast<std::size_t>(level) >= stats.hops_by_level.size()) {
        stats.hops_by_level.resize(static_cast<std::size_t>(level) + 1, 0);
      }
      ++stats.hops_by_level[static_cast<std::size_t>(level)];
    }
  }
  if (cost_ && route.ok) stats.cost.add(path_cost(route, cost_));
  if (sink_) {
    const std::uint64_t trace_id = sink_->begin_lookup(q.from, q.key);
    for (std::size_t j = 0; j + 1 < route.path.size(); ++j) {
      telemetry::HopRecord hop;
      hop.lookup = trace_id;
      hop.from = route.path[j];
      hop.to = route.path[j + 1];
      hop.hop_index = static_cast<int>(j);
      hop.level = net_->lca_level(route.path[j], route.path[j + 1]);
      sink_->on_hop(hop);
    }
    sink_->end_lookup(trace_id, route.ok, route.terminal());
  }
}

void QueryEngine::flush_resilient_counters(const ResilientStats& stats) const {
  const auto bump = [](const char* name, std::uint64_t value) {
    if (telemetry::Counter* c = telemetry::maybe_counter(name)) c->inc(value);
  };
  bump("query_engine.resilient_batches", 1);
  bump("query_engine.resilient_retries", stats.retries);
  bump("query_engine.resilient_fallback_hops", stats.fallback_hops);
  bump("query_engine.resilient_skipped_sources", stats.skipped_dead_source);
}

}  // namespace canon
