// The Canon benchmark driver: three workloads, each in one process.
//
//   crescendo-1m   2^20-node Crescendo (3 levels, fanout 10) from the
//                  streamed build, then closed batches of uniform lookups
//                  through QueryEngine::run in probe mode.
//   families-16k   all 13 registry families at 16384 nodes: build, router,
//                  one uniform batch through FamilyRouter::run and the same
//                  batch through run_resilient under 10% fail-stop plus 1%
//                  message drops.
//   flash-crowd    MessageSimulator over Crescendo on 4096 hosts of the
//                  2040-router transit-stub topology: two crowds of
//                  Zipf(1.25) hot-key lookups, α=2, each an open loop in
//                  simulated time over a fixed ladder of offered loads.
//
// Usage: canon_perfbench --workload=<name> [--seed=N] [--seconds=S]
//                        [--trace=0|1] [--threads=T]
//
// Prints a human-readable report, then one JSON line: correctness, the
// attempted/failed counts, the metrics (end-to-end with --trace=0, per-layer
// with --trace=1), a summary of the workload's headline figures, the
// flash-crowd fingerprint and the run's provenance. perfbench/run.py builds
// this binary, checks the fingerprint and reduces the line to the result
// record. Every correctness check runs outside the timed regions.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "canon/crescendo.h"
#include "common/parallel.h"
#include "overlay/family_registry.h"
#include "overlay/message_sim.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "trace.h"
#include "telemetry/json_writer.h"
#include "telemetry/load_stats.h"
#include "telemetry/mem_stats.h"
#include "telemetry/timeseries.h"
#include "topology/physical_network.h"

#ifndef CANON_BENCH_BUILD_TYPE
#define CANON_BENCH_BUILD_TYPE "unknown"
#endif

using namespace canon;
using canon::perfbench::CallMeter;
using canon::perfbench::Clock;
using canon::perfbench::seconds_since;
using canon::perfbench::Tracer;
using telemetry::JsonValue;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 0;  // 0 = min(4, hardware concurrency)
};

/// Independent input streams derived from the one workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Everything one workload run reports.
class Result {
 public:
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
  }
  bool correct() const { return failures_.empty(); }

  /// Lookups issued in the timed phase, and those among every checked
  /// lookup whose outcome was wrong (an expected failure under injected
  /// faults or overload is an outcome, not a wrong one).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void end_to_end(const std::string& name, double value,
                  const std::string& unit) {
    add(e2e_, name, value, unit);
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    add(layers_, name, value, unit);
  }
  /// The workload's headline figures under the names the docs use.
  void summary(const std::string& name, double value,
               const std::string& unit) {
    add(summary_, name, value, unit);
  }
  void set_extra(const std::string& key, JsonValue v) {
    extra_.set(key, std::move(v));
  }

  JsonValue to_json(bool traced) const {
    JsonValue out = JsonValue::object();
    out.set("correct", JsonValue(correct()));
    out.set("attempted", JsonValue(attempted));
    out.set("failed", JsonValue(failed));
    out.set("metrics", traced ? layers_ : e2e_);
    out.set("summary", summary_);
    JsonValue fails = JsonValue::array();
    for (const auto& f : failures_) fails.push_back(JsonValue(f));
    out.set("check_failures", std::move(fails));
    out.set("checks", JsonValue(checks_));
    for (const auto& [k, v] : extra_.members()) out.set(k, v);
    return out;
  }

  void print(bool traced) const {
    std::printf("checks: %llu run, %zu failed\n",
                static_cast<unsigned long long>(checks_), failures_.size());
    for (const auto& f : failures_) std::printf("  CHECK FAILED: %s\n", f.c_str());
    const auto table = [](const char* title, const JsonValue& m) {
      std::printf("%s\n", title);
      for (const auto& [name, v] : m.members()) {
        std::printf("  %-48s %18.6g %s\n", name.c_str(),
                    v.get("value")->as_double(),
                    v.get("unit")->as_string().c_str());
      }
    };
    table("summary:", summary_);
    table(traced ? "per-layer metrics:" : "end-to-end metrics:",
          traced ? layers_ : e2e_);
  }

 private:
  static void add(JsonValue& m, const std::string& name, double value,
                  const std::string& unit) {
    JsonValue v = JsonValue::object();
    v.set("value", JsonValue(value));
    v.set("unit", JsonValue(unit));
    m.set(name, std::move(v));
  }

  std::uint64_t checks_ = 0;
  std::vector<std::string> failures_;
  JsonValue e2e_ = JsonValue::object();
  JsonValue layers_ = JsonValue::object();
  JsonValue summary_ = JsonValue::object();
  JsonValue extra_ = JsonValue::object();
};

/// Runs `unit` until `seconds` have passed (at least `min_units` times) and
/// returns each unit's wall time. `unit(i)` gets the unit's index.
template <typename Unit>
std::vector<double> run_for(double seconds, int min_units, Unit&& unit) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_units ||
         seconds_since(start) < seconds) {
    const auto t = Clock::now();
    unit(times.size());
    times.push_back(seconds_since(t));
  }
  return times;
}

/// The timed phase of a workload. Untraced, `unit` runs for the whole
/// budget. Traced, it runs untraced for half the budget and then as many
/// more units traced under a root span (their indices continue after the
/// untraced ones), so the tracing overhead and the share of the traced
/// phase that no layer span covers are reported. Returns the untraced
/// units' wall times.
template <typename Unit>
std::vector<double> timed_phase(const Options& opt, Tracer& tracer,
                                Result& res, int min_units, Unit&& unit) {
  if (!opt.trace) {
    std::vector<double> times = run_for(opt.seconds, min_units, unit);
    JsonValue units = JsonValue::array();
    for (double t : times) units.push_back(JsonValue(t));
    res.set_extra("timed_units_s", std::move(units));
    return times;
  }
  tracer.set_enabled(false);
  const std::vector<double> plain = run_for(opt.seconds / 2, min_units, unit);
  tracer.set_enabled(true);
  std::vector<double> traced;
  {
    Tracer::Scope root(tracer, "timed");
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const auto t = Clock::now();
      unit(plain.size() + i);
      traced.push_back(seconds_since(t));
    }
  }
  double plain_s = 0, traced_s = 0;
  for (double s : plain) plain_s += s;
  for (double s : traced) traced_s += s;
  res.layer("trace.overhead_share", ratio(traced_s, plain_s) - 1.0, "ratio");
  res.layer("trace.unaccounted_share", ratio(tracer.self_s("timed"), traced_s),
            "ratio");
  return plain;
}

/// Per-name median of the spans recorded during the set-up repetitions.
double span_median(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations(name));
}

// ---------------------------------------------------------------------------
// crescendo-1m

constexpr std::size_t kMegaNodes = std::size_t{1} << 20;
constexpr std::size_t kMegaBatch = std::size_t{1} << 18;
constexpr std::size_t kMegaBatches = 4;
constexpr int kMegaSetups = 3;

PopulationSpec hierarchy_spec(std::size_t nodes) {
  PopulationSpec spec;
  spec.node_count = nodes;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 10;
  return spec;
}

bool same_stats(const QueryStats& a, const QueryStats& b) {
  return a.queries == b.queries && a.failures == b.failures &&
         a.total_hops == b.total_hops && a.hops.count() == b.hops.count() &&
         a.hops.sum() == b.hops.sum();
}

bool same_stats(const ResilientStats& a, const ResilientStats& b) {
  return same_stats(a.base, b.base) &&
         a.skipped_dead_source == b.skipped_dead_source &&
         a.retries == b.retries && a.fallback_hops == b.fallback_hops;
}

void run_crescendo_1m(const Options& opt, Result& res) {
  Tracer tracer(opt.trace);
  std::unique_ptr<OverlayNetwork> net;
  std::unique_ptr<LinkTable> links;
  std::unique_ptr<RingRouter> router;

  // Streamed-build shard completions (traced run only): the shard hook is
  // the build's public progress callback, called from worker threads.
  std::mutex shard_mu;
  std::vector<Clock::time_point> shard_done;
  std::function<void(std::size_t, std::size_t)> on_shard;
  if (opt.trace) {
    on_shard = [&](std::size_t, std::size_t) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(shard_mu);
      shard_done.push_back(now);
    };
  }
  Clock::time_point build_start, build_end;

  std::vector<double> setup_s;
  for (int rep = 0; rep < kMegaSetups; ++rep) {
    router.reset();
    links.reset();
    net.reset();
    shard_done.clear();
    const auto start = Clock::now();
    {
      Tracer::Scope s(tracer, "hierarchy.population_s");
      Rng rng(opt.seed);
      net = std::make_unique<OverlayNetwork>(
          make_population(hierarchy_spec(kMegaNodes), rng));
    }
    {
      Tracer::Scope s(tracer, "canon.build_s.crescendo_streamed");
      build_start = Clock::now();
      links = std::make_unique<LinkTable>(
          build_crescendo_streamed(*net, kStreamShardNodes, on_shard));
      build_end = Clock::now();
    }
    {
      Tracer::Scope s(tracer, "overlay.make_router_s.crescendo");
      router = std::make_unique<RingRouter>(*net, *links);
    }
    setup_s.push_back(seconds_since(start));
  }

  // Inputs and the oracle check, outside every timed region.
  std::vector<std::vector<Query>> batches;
  std::vector<QueryStats> reference;
  QueryEngine engine(*net);
  std::uint64_t hops = 0, queries = 0;
  for (std::size_t b = 0; b < kMegaBatches; ++b) {
    batches.push_back(
        uniform_workload(*net, kMegaBatch, Rng(derive(opt.seed, 1 + b))));
    std::vector<RouteProbe> probes;
    reference.push_back(engine.run(batches[b], *router, &probes));
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const NodeIndex want = net->responsible(batches[b][i].key);
      if (!probes[i].ok || probes[i].terminal != want) ++wrong;
    }
    res.failed += wrong;
    res.check(wrong == 0, "crescendo-1m batch " + std::to_string(b) + ": " +
                              std::to_string(wrong) +
                              " terminals differ from responsible(key)");
    res.check(reference[b].failures == 0,
              "crescendo-1m batch " + std::to_string(b) + " had failures");
    hops += reference[b].total_hops;
    queries += reference[b].queries;
  }

  std::vector<QueryStats> timed_stats;
  const std::vector<double> times =
      timed_phase(opt, tracer, res, 8, [&](std::size_t i) {
        Tracer::Scope s(tracer, "overlay.query.run.crescendo");
        timed_stats.push_back(
            engine.run(batches[i % kMegaBatches], *router));
      });
  std::uint64_t diverged = 0;
  for (std::size_t i = 0; i < timed_stats.size(); ++i) {
    if (!same_stats(timed_stats[i], reference[i % kMegaBatches])) ++diverged;
  }
  res.check(diverged == 0, "crescendo-1m: " + std::to_string(diverged) +
                               " timed batches differ from the checked run");
  res.attempted = times.size() * kMegaBatch;

  std::vector<double> rates;
  for (double t : times) rates.push_back(static_cast<double>(kMegaBatch) / t);
  const double lookups_per_s = median(rates);
  const double mean_hops = ratio(static_cast<double>(hops),
                                 static_cast<double>(queries));
  const double rss = telemetry::peak_rss_mb();

  res.end_to_end("setup_s", median(setup_s), "s");
  res.end_to_end("lookups_per_s", lookups_per_s, "1/s");
  res.end_to_end("mean_hops", mean_hops, "hops");
  res.end_to_end("success_rate",
                 ratio(static_cast<double>(queries - res.failed),
                       static_cast<double>(queries)),
                 "ratio");
  res.end_to_end("peak_rss_mb", rss, "MB");

  res.summary("setup_s", median(setup_s), "s");
  res.summary("lookups_per_s", lookups_per_s, "1/s");
  res.summary("lookup_fail_rate",
              ratio(static_cast<double>(res.failed),
                    static_cast<double>(queries)),
              "ratio");
  res.summary("mean_hops", mean_hops, "hops");
  res.summary("peak_rss_mb", rss, "MB");

  if (!opt.trace) return;
  res.layer("hierarchy.population_s",
            span_median(tracer, "hierarchy.population_s"), "s");
  res.layer("canon.build_s.crescendo_streamed",
            span_median(tracer, "canon.build_s.crescendo_streamed"), "s");
  res.layer("canon.links", static_cast<double>(links->total_links()),
            "count");
  // Shard spans of the last build: the longest stretch between shard
  // completions, and the serial tail after the last one.
  double gap_max = 0;
  {
    std::sort(shard_done.begin(), shard_done.end());
    Clock::time_point prev = build_start;
    for (const auto& t : shard_done) {
      gap_max = std::max(gap_max,
                         std::chrono::duration<double>(t - prev).count());
      prev = t;
    }
    res.layer("canon.build.shards", static_cast<double>(shard_done.size()),
              "count");
    res.layer("canon.build.shard_gap_max_s", gap_max, "s");
    res.layer("canon.build.tail_s",
              std::chrono::duration<double>(build_end - prev).count(), "s");
  }
  res.layer("overlay.make_router_s.crescendo",
            span_median(tracer, "overlay.make_router_s.crescendo"), "s");
  const double traced_query_s = tracer.total_s("overlay.query.run.crescendo");
  const double traced_batches =
      static_cast<double>(tracer.durations("overlay.query.run.crescendo").size());
  res.layer("overlay.query.lookups_per_s.crescendo",
            ratio(traced_batches * kMegaBatch, traced_query_s), "1/s");
  res.layer("overlay.query.hops.crescendo", mean_hops, "hops");

  // The same batch through the scalar per-query probe loop (width 0).
  const int width = probe_batch_width();
  set_probe_batch_width(0);
  const auto t = Clock::now();
  const QueryStats scalar = engine.run(batches[0], *router);
  const double scalar_s = seconds_since(t);
  set_probe_batch_width(width);
  res.check(same_stats(scalar, reference[0]),
            "crescendo-1m: scalar probe loop differs from the batch kernel");
  res.layer("overlay.query.scalar_lookups_per_s",
            static_cast<double>(kMegaBatch) / scalar_s, "1/s");
}

// ---------------------------------------------------------------------------
// families-16k

constexpr std::size_t kFamilyNodes = 16384;
constexpr std::size_t kFamilyBatch = 65536;
constexpr double kFailFraction = 0.10;
constexpr double kDropRate = 0.01;
constexpr std::size_t kIdentitySample = 2048;
constexpr int kFamilySetups = 3;

/// Flat DHTs come from src/dht, hierarchical designs from src/canon.
std::string module_of(std::string_view family) {
  for (std::string_view flat : {"chord", "symphony", "nondet_chord",
                                "kademlia", "can"}) {
    if (family == flat) return "dht";
  }
  return "canon";
}

/// Families routed by the greedy clockwise ring router, whose terminal
/// must be the key's responsible node.
bool ring_family(std::string_view family) {
  for (std::string_view ring :
       {"chord", "symphony", "nondet_chord", "crescendo", "clique_crescendo",
        "cacophony", "nondet_crescendo"}) {
    if (family == ring) return true;
  }
  return false;
}

struct BuiltFamily {
  BuiltFamily(std::string n, LinkTable l) : name(std::move(n)), links(std::move(l)) {}
  std::string name;
  LinkTable links;
  registry::FamilyRouter router;
};

void run_families_16k(const Options& opt, Result& res) {
  Tracer tracer(opt.trace);
  std::unique_ptr<OverlayNetwork> net;
  // FamilyRouter borrows its LinkTable, so each family keeps a stable
  // address.
  std::vector<std::unique_ptr<BuiltFamily>> built;

  std::vector<double> setup_s;
  for (int rep = 0; rep < kFamilySetups; ++rep) {
    built.clear();
    net.reset();
    const auto start = Clock::now();
    {
      Tracer::Scope s(tracer, "hierarchy.population_s");
      Rng rng(opt.seed);
      net = std::make_unique<OverlayNetwork>(
          make_population(hierarchy_spec(kFamilyNodes), rng));
    }
    for (const registry::FamilyEntry& entry : registry::families()) {
      const std::string name(entry.name);
      std::unique_ptr<BuiltFamily> fam;
      {
        Tracer::Scope s(tracer, module_of(name) + ".build_s." + name);
        fam = std::make_unique<BuiltFamily>(
            name, registry::build_family(*net, name, opt.seed));
      }
      {
        Tracer::Scope s(tracer, "overlay.make_router_s." + name);
        fam->router = entry.make_router(*net, fam->links);
      }
      built.push_back(std::move(fam));
    }
    setup_s.push_back(seconds_since(start));
  }

  // Inputs and checks, outside every timed region.
  const std::vector<Query> queries =
      uniform_workload(*net, kFamilyBatch, Rng(derive(opt.seed, 1)));
  FaultPlan plan =
      FaultPlan::fail_fraction(net->size(), kFailFraction, derive(opt.seed, 2));
  plan.set_drop(kDropRate, derive(opt.seed, 3));
  const FaultPlan no_faults;
  const std::span<const Query> sample(queries.data(),
                                      std::min(kIdentitySample, queries.size()));
  QueryEngine engine(*net);

  std::vector<QueryStats> healthy_ref;
  std::vector<ResilientStats> faulty_ref;
  std::uint64_t links_by_module[2] = {0, 0};  // canon, dht
  for (const auto& fam : built) {
    const audit::AuditReport audit =
        registry::audit_family(fam->name, *net, fam->links);
    res.check(audit.violations.empty(),
              fam->name + ": audit reports " +
                  std::to_string(audit.violations.size()) + " violations");
    links_by_module[module_of(fam->name) == "dht"] += fam->links.total_links();

    std::vector<RouteProbe> probes;
    healthy_ref.push_back(fam->router.run(engine, queries, &probes));
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (!probes[i].ok ||
          (ring_family(fam->name) &&
           probes[i].terminal != net->responsible(queries[i].key))) {
        ++wrong;
      }
    }
    res.failed += wrong;
    res.check(wrong == 0, fam->name + ": " + std::to_string(wrong) +
                              " healthy lookups failed or missed "
                              "responsible(key)");

    std::vector<RouteProbe> plain_sample, empty_plan_sample;
    const QueryStats plain = fam->router.run(engine, sample, &plain_sample);
    const ResilientStats empty_plan =
        fam->router.run_resilient(engine, sample, no_faults, &empty_plan_sample);
    res.check(same_stats(empty_plan.base, plain) &&
                  empty_plan.skipped_dead_source == 0 &&
                  empty_plan.retries == 0 && empty_plan.fallback_hops == 0 &&
                  empty_plan_sample == plain_sample,
              fam->name + ": run_resilient on an empty plan differs from run");

    faulty_ref.push_back(fam->router.run_resilient(engine, queries, plan));
  }

  // Timed phase: rounds over every family, healthy batch then faulty batch.
  const std::size_t families = built.size();
  std::vector<double> healthy_round_s, faulty_round_s;
  std::uint64_t diverged = 0;
  const std::vector<double> times =
      timed_phase(opt, tracer, res, 4, [&](std::size_t) {
        double healthy_s = 0, faulty_s = 0;
        for (std::size_t f = 0; f < families; ++f) {
          const BuiltFamily& fam = *built[f];
          auto t = Clock::now();
          QueryStats h;
          {
            Tracer::Scope s(tracer, "overlay.query.run." + fam.name);
            h = fam.router.run(engine, queries);
          }
          healthy_s += seconds_since(t);
          t = Clock::now();
          // run_resilient, split so the two steps get their own spans.
          int span = tracer.begin("overlay.faults.materialize_s");
          const FailureSet dead = plan.materialize(*net);
          tracer.end(span);
          span = tracer.begin("overlay.resilient.run." + fam.name);
          const ResilientStats r =
              fam.router.run_resilient_with(engine, queries, dead, plan);
          tracer.end(span);
          faulty_s += seconds_since(t);
          if (!same_stats(h, healthy_ref[f]) || !same_stats(r, faulty_ref[f])) {
            ++diverged;
          }
        }
        healthy_round_s.push_back(healthy_s);
        faulty_round_s.push_back(faulty_s);
      });
  res.check(diverged == 0, "families-16k: " + std::to_string(diverged) +
                               " timed batches differ from the checked run");

  std::uint64_t hops = 0, ok_healthy = 0, attempted_faulty = 0, ok_faulty = 0;
  std::uint64_t retries = 0, fallback_hops = 0;
  for (std::size_t f = 0; f < families; ++f) {
    hops += healthy_ref[f].total_hops;
    ok_healthy += healthy_ref[f].ok();
    attempted_faulty += faulty_ref[f].attempted();
    ok_faulty += faulty_ref[f].base.ok();
    retries += faulty_ref[f].retries;
    fallback_hops += faulty_ref[f].fallback_hops;
  }
  const std::size_t rounds = healthy_round_s.size();
  // The traced run's untraced half is what the phase measures; only its
  // rounds enter the throughput medians.
  const std::size_t plain_rounds = times.size();
  std::vector<double> healthy_rates, faulty_rates;
  for (std::size_t r = 0; r < plain_rounds && r < rounds; ++r) {
    healthy_rates.push_back(static_cast<double>(families * kFamilyBatch) /
                            healthy_round_s[r]);
    faulty_rates.push_back(static_cast<double>(attempted_faulty) /
                           faulty_round_s[r]);
  }
  res.attempted = plain_rounds * (families * kFamilyBatch + attempted_faulty);
  const double lookups_per_s = median(healthy_rates);
  const double faulty_per_s = median(faulty_rates);
  const double mean_hops =
      ratio(static_cast<double>(hops), static_cast<double>(ok_healthy));
  const double success = ratio(static_cast<double>(ok_faulty),
                               static_cast<double>(attempted_faulty));
  const double rss = telemetry::peak_rss_mb();

  res.end_to_end("setup_s", median(setup_s), "s");
  res.end_to_end("lookups_per_s", lookups_per_s, "1/s");
  res.end_to_end("mean_hops", mean_hops, "hops");
  res.end_to_end("success_rate", success, "ratio");
  res.end_to_end("peak_rss_mb", rss, "MB");

  res.summary("setup_s", median(setup_s), "s");
  res.summary("lookups_per_s", lookups_per_s, "1/s");
  res.summary("faulty_lookups_per_s", faulty_per_s, "1/s");
  res.summary("lookup_fail_rate",
              ratio(static_cast<double>(res.failed),
                    static_cast<double>(families * kFamilyBatch)),
              "ratio");
  res.summary("faulty_fail_rate", 1.0 - success, "ratio");
  res.summary("mean_hops", mean_hops, "hops");
  res.summary("peak_rss_mb", rss, "MB");

  if (!opt.trace) return;
  res.layer("hierarchy.population_s",
            span_median(tracer, "hierarchy.population_s"), "s");
  res.layer("canon.links", static_cast<double>(links_by_module[0]), "count");
  res.layer("dht.links", static_cast<double>(links_by_module[1]), "count");
  const auto per_family = [&](const std::string& span_prefix,
                              std::size_t lookups_per_call,
                              const std::string& name) {
    const double s = tracer.total_s(span_prefix + name);
    const double calls =
        static_cast<double>(tracer.durations(span_prefix + name).size());
    return ratio(calls * static_cast<double>(lookups_per_call), s);
  };
  for (std::size_t f = 0; f < families; ++f) {
    const std::string& name = built[f]->name;
    const std::string build = module_of(name) + ".build_s." + name;
    res.layer(build, span_median(tracer, build), "s");
    res.layer("overlay.make_router_s." + name,
              span_median(tracer, "overlay.make_router_s." + name), "s");
    res.layer("overlay.query.lookups_per_s." + name,
              per_family("overlay.query.run.", kFamilyBatch, name), "1/s");
    res.layer("overlay.query.hops." + name, healthy_ref[f].hops.mean(),
              "hops");
    res.layer("overlay.resilient.lookups_per_s." + name,
              per_family("overlay.resilient.run.", faulty_ref[f].attempted(),
                         name),
              "1/s");
    res.layer("overlay.resilient.success_rate." + name,
              faulty_ref[f].success_rate(), "ratio");
  }
  double resilient_s = 0;
  for (const auto& fam : built) {
    resilient_s += tracer.total_s("overlay.resilient.run." + fam->name);
  }
  resilient_s += tracer.total_s("overlay.faults.materialize_s");
  res.layer("overlay.resilient.lookups_per_s",
            ratio(static_cast<double>(attempted_faulty) *
                      static_cast<double>(plain_rounds),
                  resilient_s),
            "1/s");
  res.layer("overlay.resilient.retries_per_lookup",
            ratio(static_cast<double>(retries),
                  static_cast<double>(attempted_faulty)),
            "count");
  res.layer("overlay.resilient.fallback_hops_per_lookup",
            ratio(static_cast<double>(fallback_hops),
                  static_cast<double>(attempted_faulty)),
            "hops");
  res.layer("overlay.faults.materialize_s",
            median(tracer.durations("overlay.faults.materialize_s")), "s");
}

// ---------------------------------------------------------------------------
// flash-crowd

constexpr std::size_t kCrowdHosts = 4096;
constexpr std::size_t kCrowdLookups = 10000;
// Independent Zipf key pools per pass: the hot keys set the flash crowd's
// paths, so one pool per seed would make its figures swing with the seed.
constexpr std::size_t kCrowds = 2;
constexpr double kCrowdTheta = 1.25;
constexpr double kBaseGapMs = 1.25;  // offered load 1x: one lookup per 1.25 ms
constexpr double kLadder[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
constexpr std::size_t kSteps = std::size(kLadder);
constexpr int kCrowdSetups = 5;

MessageSimConfig crowd_config() {
  MessageSimConfig config;  // ablation_congestion's flash-crowd settings
  config.service_ms = 5.0;
  config.timeout_ms = 1500.0;
  config.backoff = 2.0;
  config.retry_budget = 3;
  config.inbox_capacity = 256;
  config.alpha = 2;
  return config;
}

/// One simulation's outcome. Sent, timeouts, failures, p50 and p99 form
/// its fingerprint; the sorted latencies let ladder steps pool crowds.
struct StepOutcome {
  MessageSimulator::Totals totals;
  double p50 = 0, p99 = 0;
  std::uint64_t ok = 0, ok_hops = 0;
  std::uint32_t max_queue = 0;
  std::vector<double> latencies;  ///< completed lookups, ascending

  bool operator==(const StepOutcome& o) const {
    return totals.sent == o.totals.sent && totals.serviced == o.totals.serviced &&
           totals.timeouts == o.totals.timeouts &&
           totals.retries == o.totals.retries &&
           totals.link_drops == o.totals.link_drops &&
           totals.inbox_drops == o.totals.inbox_drops &&
           totals.failures == o.totals.failures && p50 == o.p50 &&
           p99 == o.p99 && ok == o.ok && ok_hops == o.ok_hops &&
           max_queue == o.max_queue && latencies == o.latencies;
  }
};

StepOutcome outcome_of(const MessageSimulator& sim) {
  StepOutcome out;
  out.totals = sim.totals();
  out.p50 = lookup_latency_percentile(sim.lookups(), 0.50);
  out.p99 = lookup_latency_percentile(sim.lookups(), 0.99);
  for (const auto& r : sim.lookups()) {
    if (r.completed_ms >= 0) out.latencies.push_back(r.latency_ms());
    if (r.ok) {
      ++out.ok;
      out.ok_hops += static_cast<std::uint64_t>(r.hops);
    }
  }
  std::sort(out.latencies.begin(), out.latencies.end());
  out.max_queue = *std::max_element(sim.max_queue_depth().begin(),
                                    sim.max_queue_depth().end());
  return out;
}

/// Nearest-rank percentile of a sorted sample, as lookup_latency_percentile
/// takes it.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

std::string load_label(double load) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "x%.2f", load);
  return buf;
}

void run_flash_crowd(const Options& opt, Result& res) {
  Tracer tracer(opt.trace);
  std::unique_ptr<PhysicalNetwork> phys;
  std::unique_ptr<OverlayNetwork> net;
  std::unique_ptr<LinkTable> links;
  Stepper stepper;
  HopCost latency;

  std::vector<double> setup_s;
  for (int rep = 0; rep < kCrowdSetups; ++rep) {
    latency = nullptr;
    stepper = nullptr;
    links.reset();
    net.reset();
    phys.reset();
    const auto start = Clock::now();
    Rng rng(opt.seed);
    {
      Tracer::Scope s(tracer, "topology.build_s");
      phys = std::make_unique<PhysicalNetwork>(TransitStubConfig{}, rng);
    }
    {
      Tracer::Scope s(tracer, "hierarchy.population_s");
      net = std::make_unique<OverlayNetwork>(
          make_physical_population(kCrowdHosts, *phys, 32, rng));
    }
    {
      Tracer::Scope s(tracer, "canon.build_s.crescendo");
      links = std::make_unique<LinkTable>(
          registry::build_family(*net, "crescendo", opt.seed));
    }
    {
      Tracer::Scope s(tracer, "overlay.make_stepper_s");
      stepper = registry::family("crescendo").make_stepper(*net, *links);
      latency = host_hop_cost(*net, *phys);
    }
    setup_s.push_back(seconds_since(start));
  }

  std::vector<std::vector<Query>> crowds;
  for (std::size_t c = 0; c < kCrowds; ++c) {
    crowds.push_back(zipf_workload(*net, kCrowdLookups,
                                   Rng(derive(opt.seed, 1 + c)), kCrowdTheta));
  }
  const MessageSimConfig config = crowd_config();

  // One simulated run of crowd `c` at ladder step `load`, optionally with
  // sinks.
  const auto simulate = [&](std::size_t c, double load, const Stepper& step,
                            const HopCost& cost, const SimSinks* sinks) {
    MessageSimulator sim(*net, *links, step, cost, config);
    if (sinks) sim.attach(*sinks);
    const double gap_ms = kBaseGapMs / load;
    const std::vector<Query>& queries = crowds[c];
    for (std::size_t i = 0; i < queries.size(); ++i) {
      sim.submit(queries[i].from, queries[i].key,
                 gap_ms * static_cast<double>(i));
    }
    sim.run();
    return sim;
  };

  // A pass runs every (crowd, step) simulation. Each is serial; they run
  // concurrently on the worker threads, highest load (the longest runs)
  // first. Throughput is taken per simulator-second, the summed wall time
  // of the pass's simulations, so it measures the simulator and not how
  // well the uneven steps pack onto the threads.
  constexpr std::size_t kSims = kCrowds * kSteps;
  std::vector<CallMeter> stepper_meters(kSims), cost_meters(kSims);
  std::vector<StepOutcome> first;  // the first pass, [c * kSteps + step]
  std::vector<double> pass_sim_s;
  std::uint64_t diverged = 0;
  const std::vector<double> times =
      timed_phase(opt, tracer, res, 3, [&](std::size_t) {
        const bool traced = tracer.enabled();
        std::vector<StepOutcome> outcomes(kSims);
        std::vector<double> sim_s(kSims);
        {
          Tracer::Scope s(tracer, "overlay.sim.ladder");
          parallel_for(kSims, 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
              const std::size_t step = kSteps - 1 - k / kCrowds;
              const std::size_t c = k % kCrowds;
              const std::size_t at = c * kSteps + step;
              const auto t = Clock::now();
              const MessageSimulator sim =
                  traced ? simulate(c, kLadder[step],
                                    perfbench::metered(stepper, &stepper_meters[at]),
                                    perfbench::metered(latency, &cost_meters[at]),
                                    nullptr)
                         : simulate(c, kLadder[step], stepper, latency, nullptr);
              sim_s[at] = seconds_since(t);
              outcomes[at] = outcome_of(sim);
            }
          });
        }
        double total = 0;
        for (double t : sim_s) total += t;
        pass_sim_s.push_back(total);
        if (first.empty()) {
          first = std::move(outcomes);
        } else if (outcomes != first) {
          ++diverged;
        }
      });
  res.check(diverged == 0, "flash-crowd: " + std::to_string(diverged) +
                               " ladder passes differ from the first");

  // Per-step figures pool the crowds.
  std::uint64_t submitted = 0, ok = 0, ok_hops = 0, sent = 0;
  std::vector<std::vector<double>> step_latencies(kSteps);
  std::vector<std::uint64_t> step_failures(kSteps, 0);
  MessageSimulator::Totals sum;
  std::uint32_t max_queue = 0;
  for (std::size_t at = 0; at < kSims; ++at) {
    const StepOutcome& s = first[at];
    const std::size_t step = at % kSteps;
    res.check(s.latencies.size() == kCrowdLookups,
              "flash-crowd: a submitted lookup never completed");
    res.check(s.ok + s.totals.failures == kCrowdLookups,
              "flash-crowd: ok + failed != submitted");
    // Sources service their own injection, which is never sent.
    res.check(s.totals.serviced <= s.totals.sent + kCrowdLookups,
              "flash-crowd: more requests serviced than sent or injected");
    submitted += kCrowdLookups;
    ok += s.ok;
    ok_hops += s.ok_hops;
    sent += s.totals.sent;
    step_latencies[step].insert(step_latencies[step].end(),
                                s.latencies.begin(), s.latencies.end());
    step_failures[step] += s.totals.failures;
    sum.sent += s.totals.sent;
    sum.serviced += s.totals.serviced;
    sum.timeouts += s.totals.timeouts;
    sum.retries += s.totals.retries;
    sum.inbox_drops += s.totals.inbox_drops;
    sum.link_drops += s.totals.link_drops;
    max_queue = std::max(max_queue, s.max_queue);
  }
  std::vector<double> step_p99(kSteps);
  for (std::size_t i = 0; i < kSteps; ++i) {
    std::sort(step_latencies[i].begin(), step_latencies[i].end());
    step_p99[i] = percentile(step_latencies[i], 0.99);
  }

  const std::size_t plain = times.size();
  std::vector<double> rates, msg_rates;
  for (std::size_t i = 0; i < plain; ++i) {
    rates.push_back(static_cast<double>(submitted) / pass_sim_s[i]);
    msg_rates.push_back(static_cast<double>(sent) / pass_sim_s[i]);
  }
  res.attempted = plain * submitted;
  const double lookups_per_s = median(rates);
  const double mean_hops =
      ratio(static_cast<double>(ok_hops), static_cast<double>(ok));
  const double success =
      ratio(static_cast<double>(ok), static_cast<double>(submitted));
  const double rss = telemetry::peak_rss_mb();

  // Capacity: the highest load up to which every step is failure-free and
  // keeps p99 within 1.5x of the lowest step's.
  double capacity = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    if (step_failures[i] != 0 || step_p99[i] > 1.5 * step_p99[0]) break;
    capacity = kLadder[i];
  }
  double p99_1x = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    if (kLadder[i] == 1.0) p99_1x = step_p99[i];
  }
  const double top_fail_rate =
      ratio(static_cast<double>(step_failures[kSteps - 1]),
            static_cast<double>(kCrowds * kCrowdLookups));

  res.end_to_end("setup_s", median(setup_s), "s");
  res.end_to_end("lookups_per_s", lookups_per_s, "1/s");
  res.end_to_end("mean_hops", mean_hops, "hops");
  res.end_to_end("success_rate", success, "ratio");
  res.end_to_end("peak_rss_mb", rss, "MB");

  res.summary("setup_s", median(setup_s), "s");
  res.summary("lookups_per_s", lookups_per_s, "1/s");
  res.summary("sim_msgs_per_s", median(msg_rates), "1/s");
  res.summary("sim_p99_ms", p99_1x, "sim_ms");
  res.summary("sim_capacity_x", capacity, "x");
  res.summary("sim_fail_rate", top_fail_rate, "ratio");
  res.summary("mean_hops", mean_hops, "hops");
  res.summary("peak_rss_mb", rss, "MB");

  JsonValue fingerprint = JsonValue::array();
  for (std::size_t at = 0; at < kSims; ++at) {
    JsonValue row = JsonValue::object();
    row.set("crowd", JsonValue(static_cast<std::uint64_t>(at / kSteps)));
    row.set("load", JsonValue(kLadder[at % kSteps]));
    row.set("sent", JsonValue(first[at].totals.sent));
    row.set("timeouts", JsonValue(first[at].totals.timeouts));
    row.set("failures", JsonValue(first[at].totals.failures));
    row.set("p50_ms", JsonValue(first[at].p50));
    row.set("p99_ms", JsonValue(first[at].p99));
    fingerprint.push_back(std::move(row));
  }
  res.set_extra("fingerprint", std::move(fingerprint));

  if (!opt.trace) return;
  res.layer("topology.build_s", span_median(tracer, "topology.build_s"), "s");
  res.layer("hierarchy.population_s",
            span_median(tracer, "hierarchy.population_s"), "s");
  res.layer("canon.build_s.crescendo",
            span_median(tracer, "canon.build_s.crescendo"), "s");
  res.layer("canon.links", static_cast<double>(links->total_links()), "count");
  res.layer("overlay.make_stepper_s",
            span_median(tracer, "overlay.make_stepper_s"), "s");

  // Per traced pass, in thread-seconds: the simulations ran concurrently.
  const double traced_passes = static_cast<double>(pass_sim_s.size() - plain);
  CallMeter stepper_meter, cost_meter;
  double run_s = 0;
  for (std::size_t at = 0; at < kSims; ++at) {
    stepper_meter.calls += stepper_meters[at].calls;
    stepper_meter.ns += stepper_meters[at].ns;
    cost_meter.calls += cost_meters[at].calls;
    cost_meter.ns += cost_meters[at].ns;
  }
  for (std::size_t i = plain; i < pass_sim_s.size(); ++i) run_s += pass_sim_s[i];
  run_s /= traced_passes;
  const double stepper_s = stepper_meter.seconds() / traced_passes;
  const double cost_s = cost_meter.seconds() / traced_passes;
  res.layer("overlay.sim.ladder_s",
            tracer.total_s("overlay.sim.ladder") / traced_passes, "s");
  res.layer("overlay.sim.run_s", run_s, "s");
  res.layer("overlay.sim.engine_self_s", run_s - stepper_s - cost_s, "s");
  res.layer("overlay.stepper.calls",
            static_cast<double>(stepper_meter.calls) / traced_passes, "count");
  res.layer("overlay.stepper.s", stepper_s, "s");
  res.layer("topology.hop_cost.calls",
            static_cast<double>(cost_meter.calls) / traced_passes, "count");
  res.layer("topology.hop_cost.s", cost_s, "s");
  res.layer("overlay.sim.msgs_per_s", median(msg_rates), "1/s");
  res.layer("overlay.sim.sent", static_cast<double>(sum.sent), "count");
  res.layer("overlay.sim.serviced", static_cast<double>(sum.serviced), "count");
  res.layer("overlay.sim.timeouts", static_cast<double>(sum.timeouts), "count");
  res.layer("overlay.sim.retries", static_cast<double>(sum.retries), "count");
  res.layer("overlay.sim.inbox_drops", static_cast<double>(sum.inbox_drops),
            "count");
  res.layer("overlay.sim.link_drops", static_cast<double>(sum.link_drops),
            "count");
  res.layer("overlay.sim.max_queue_depth", static_cast<double>(max_queue),
            "count");
  res.layer("overlay.sim.serviced_per_sent",
            ratio(static_cast<double>(sum.serviced),
                  static_cast<double>(sum.sent)),
            "ratio");
  for (std::size_t i = 0; i < kSteps; ++i) {
    res.layer("overlay.sim.p99_ms." + load_label(kLadder[i]), step_p99[i],
              "sim_ms");
  }
  res.layer("overlay.sim.capacity_x", capacity, "x");
  res.layer("overlay.sim.fail_rate", top_fail_rate, "ratio");

  // Sinks overhead: crowd 0's 1x step with LoadAccountant and
  // TimeSeriesRecorder attached against the same step detached; outputs
  // must be identical.
  std::vector<double> with_s, without_s;
  double confinement = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t = Clock::now();
    const StepOutcome bare =
        outcome_of(simulate(0, 1.0, stepper, latency, nullptr));
    without_s.push_back(seconds_since(t));
    telemetry::LoadAccountant accountant(net->domains(), net->ids());
    telemetry::TimeSeriesRecorder series(250.0);
    SimSinks sinks;
    sinks.load = &accountant;
    sinks.timeseries = &series;
    t = Clock::now();
    const StepOutcome observed =
        outcome_of(simulate(0, 1.0, stepper, latency, &sinks));
    with_s.push_back(seconds_since(t));
    res.check(bare == observed,
              "flash-crowd: attaching telemetry sinks changed the simulation");
    confinement = accountant.confinement_ratio();
  }
  res.layer("telemetry.sinks_overhead_s", median(with_s) - median(without_s),
            "s");
  res.layer("telemetry.confinement", confinement, "ratio");
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg.rfind("--", 0) != 0) return false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (arg == "--threads") {
      const long t = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || t < 1 || t > 256) return false;
      opt.threads = static_cast<int>(t);
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: canon_perfbench --workload=crescendo-1m|"
                 "families-16k|flash-crowd [--seed=N] [--seconds=S] "
                 "[--trace=0|1] [--threads=T]\n");
    return 2;
  }
  const bool release = std::strcmp(CANON_BENCH_BUILD_TYPE, "Release") == 0;
  if (!release) {
    std::fprintf(stderr,
                 "canon_perfbench: refusing to measure a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 CANON_BENCH_BUILD_TYPE);
    return 3;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  set_parallel_threads(opt.threads > 0 ? opt.threads
                                       : std::max(1, std::min(4, nproc)));

  Result res;
  try {
    if (opt.workload == "crescendo-1m") {
      run_crescendo_1m(opt, res);
    } else if (opt.workload == "families-16k") {
      run_families_16k(opt, res);
    } else if (opt.workload == "flash-crowd") {
      run_flash_crowd(opt, res);
    } else {
      std::fprintf(stderr, "canon_perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "canon_perfbench: %s\n", e.what());
    return 1;
  }

  JsonValue prov = JsonValue::object();
  prov.set("workload", JsonValue(opt.workload));
  prov.set("seed", JsonValue(opt.seed));
  prov.set("seconds", JsonValue(opt.seconds));
  prov.set("trace", JsonValue(opt.trace));
  prov.set("nproc", JsonValue(nproc));
  prov.set("threads", JsonValue(parallel_threads()));
  prov.set("build_type", JsonValue(CANON_BENCH_BUILD_TYPE));
#ifdef __clang__
  prov.set("compiler", JsonValue(std::string("clang ") + __clang_version__));
#else
  prov.set("compiler", JsonValue(std::string("gcc ") + __VERSION__));
#endif
  res.set_extra("provenance", std::move(prov));

  std::printf("== canon_perfbench %s (seed %llu, %d threads, %s build) ==\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              parallel_threads(), CANON_BENCH_BUILD_TYPE);
  res.print(opt.trace);
  std::printf("%s\n", res.to_json(opt.trace).dump().c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
