// Tests for the message-granularity simulator: the α=1 greedy-equivalence
// contract, timeout/retry/drop accounting under faults, bounded-inbox
// semantics, sink wiring, and the byte-identical-at-any-thread-count
// determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "canon/crescendo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/family_registry.h"
#include "overlay/message_sim.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/journal.h"
#include "telemetry/load_stats.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace canon {
namespace {

OverlayNetwork small_net(std::size_t n, int levels, std::uint64_t seed) {
  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  return make_population(spec, rng);
}

struct Workload {
  std::vector<std::uint32_t> from;
  std::vector<NodeId> keys;
};

Workload make_workload(const OverlayNetwork& net, int count,
                       std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    w.from.push_back(static_cast<std::uint32_t>(rng.uniform(net.size())));
    w.keys.push_back(net.space().wrap(rng()));
  }
  return w;
}

void submit_all(MessageSimulator& sim, const Workload& w, double gap_ms) {
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    sim.submit(w.from[i], w.keys[i], gap_ms * static_cast<double>(i));
  }
}

/// Every number a report could be derived from, printed at full
/// precision: the determinism contract says this string is identical on
/// every run regardless of the process-wide thread count.
std::string fingerprint(const MessageSimulator& sim) {
  std::ostringstream out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out << buf;
  };
  for (const auto& lk : sim.lookups()) {
    out << lk.from << ":" << lk.key << ":" << lk.hops << ":" << lk.ok << ":"
        << lk.timeouts << ":" << lk.retries << ":";
    num(lk.issued_ms);
    num(lk.completed_ms);
  }
  const auto& t = sim.totals();
  out << "|" << t.sent << "," << t.serviced << "," << t.timeouts << ","
      << t.retries << "," << t.link_drops << "," << t.inbox_drops << ","
      << t.failures << "|";
  num(sim.now_ms());
  for (const auto l : sim.node_load()) out << l << ",";
  for (const auto d : sim.max_queue_depth()) out << d << ",";
  return out.str();
}

TEST(MessageSim, Alpha1MatchesGreedyRouterExactly) {
  // With no faults and α=1 the frontier walks the family's greedy chain:
  // per-lookup hop counts equal the static router's on the same workload.
  const auto net = small_net(300, 3, 2001);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  MessageSimulator sim(net, links);  // default stepper = greedy ring
  const Workload w = make_workload(net, 200, 7);
  submit_all(sim, w, 1.0);
  sim.run();
  ASSERT_EQ(sim.lookups().size(), 200u);
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    const Route expected = router.route(w.from[i], w.keys[i]);
    const auto& lookup = sim.lookups()[i];
    EXPECT_TRUE(lookup.ok) << i;
    EXPECT_EQ(lookup.hops, expected.hops()) << i;
    EXPECT_EQ(lookup.timeouts, 0) << i;
    EXPECT_GE(lookup.completed_ms, lookup.issued_ms) << i;
  }
  EXPECT_EQ(sim.totals().timeouts, 0u);
  EXPECT_EQ(sim.totals().failures, 0u);
}

TEST(MessageSim, CompletedLookupsMatchStaticRouter) {
  // Lookups submitted one per millisecond all complete, in submission
  // order, with the static router's hop count.
  const auto net = small_net(300, 3, 1001);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  const RingRouter router(net, links);
  Rng rng(5);
  std::vector<Route> expected;
  for (int t = 0; t < 100; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    sim.submit(from, key, static_cast<double>(t));
    expected.push_back(router.route(from, key));
  }
  sim.run();
  ASSERT_EQ(sim.lookups().size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto& lookup = sim.lookups()[i];
    EXPECT_TRUE(lookup.ok);
    EXPECT_EQ(lookup.hops, expected[i].hops());
    EXPECT_GE(lookup.completed_ms, lookup.issued_ms);
  }
}

TEST(MessageSim, RegistryStepperMatchesFamilyHops) {
  // The registry's make_stepper hook must reproduce the family's route
  // choice (candidate 0 = the greedy next hop): every ring and XOR family,
  // CAN and both group families, driven through its registry stepper,
  // equal their registry router's per-query outcome hop-for-hop.
  const auto net = small_net(256, 3, 2002);
  const Workload w = make_workload(net, 150, 11);
  std::vector<Query> queries;
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    queries.push_back({w.from[i], w.keys[i]});
  }
  const QueryEngine engine(net);
  for (const char* name :
       {"chord", "symphony", "nondet_chord", "kademlia", "crescendo",
        "clique_crescendo", "cacophony", "nondet_crescendo", "kandy", "can",
        "chord_prox", "crescendo_prox"}) {
    const auto& entry = registry::family(name);
    const auto links = registry::build_family(net, name, 2002);
    std::vector<RouteProbe> expected;
    entry.make_router(net, links).run(engine, queries, &expected);
    MessageSimulator sim(net, links, entry.make_stepper(net, links));
    submit_all(sim, w, 1.0);
    sim.run();
    for (std::size_t i = 0; i < w.from.size(); ++i) {
      EXPECT_EQ(sim.lookups()[i].hops, expected[i].hops) << name << " " << i;
      EXPECT_EQ(sim.lookups()[i].ok, expected[i].ok) << name << " " << i;
    }
  }
}

TEST(MessageSim, EveryFamilyStepperTerminatesAndResolves) {
  // Every registry family must expose a stepper the simulator can drive
  // to completion fault-free. (The cancan stepper's prev-node guard is
  // weaker than the scalar core's full visited set — docs/SIMULATION.md —
  // so this asserts termination and a high ok rate, not hop equality.)
  const auto net = small_net(192, 3, 2003);
  for (const auto& name : registry::family_names()) {
    const auto links = registry::build_family(net, name, 2003);
    MessageSimulator sim(net, links,
                         registry::family(name).make_stepper(net, links));
    const Workload w = make_workload(net, 80, 13);
    submit_all(sim, w, 1.0);
    sim.run();
    int ok = 0;
    for (const auto& lookup : sim.lookups()) {
      EXPECT_GE(lookup.completed_ms, 0.0) << name;
      ok += lookup.ok;
    }
    EXPECT_GE(ok, 76) << name << ": " << ok << "/80 ok";
  }
}

TEST(MessageSim, AlphaParallelKeepsThePathAndAddsTraffic) {
  // Advance-on-best-ranked: with no faults candidate 0 always responds,
  // so α=4 walks the same frontier chain as α=1 — it just sends more
  // speculative probes.
  const auto net = small_net(300, 3, 2004);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  MessageSimulator a1(net, links, {}, {}, cfg);
  cfg.alpha = 4;
  MessageSimulator a4(net, links, {}, {}, cfg);
  const Workload w = make_workload(net, 150, 17);
  submit_all(a1, w, 1.0);
  submit_all(a4, w, 1.0);
  a1.run();
  a4.run();
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    EXPECT_EQ(a1.lookups()[i].hops, a4.lookups()[i].hops) << i;
    EXPECT_EQ(a1.lookups()[i].ok, a4.lookups()[i].ok) << i;
  }
  EXPECT_GT(a4.totals().sent, a1.totals().sent);
}

TEST(MessageSim, TimeoutRetryAccountingUnderCrashes) {
  // 30% of the network dead from t=0: probes into the dead set expire and
  // retry up the backoff ladder, then fall back to the next candidate.
  const auto net = small_net(300, 3, 2005);
  const auto links = build_crescendo(net);
  FaultPlan timed;
  const FaultPlan kill = FaultPlan::fail_fraction(net.size(), 0.3, 99);
  for (const FaultEvent& fe : kill.events()) timed.crash(fe.node, 0);

  MessageSimConfig cfg;
  cfg.timeout_ms = 4.0;  // short ladder: the test stays fast
  MessageSimulator sim(net, links, {}, {}, cfg);
  SimSinks sinks;
  sinks.fault_plan = &timed;
  sim.attach(sinks);

  // Submit from live sources only (a dead source fails immediately).
  Rng rng(23);
  int submitted = 0;
  while (submitted < 250) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    bool dead = false;
    for (const FaultEvent& fe : timed.events()) dead |= fe.node == from;
    if (dead) continue;
    sim.submit(from, net.space().wrap(rng()),
               0.5 * static_cast<double>(submitted++));
  }
  sim.run();

  EXPECT_EQ(sim.live_nodes(), net.size() - timed.events().size());
  EXPECT_GT(sim.totals().timeouts, 0u);
  EXPECT_GE(sim.totals().timeouts, sim.totals().retries);
  std::uint64_t timeouts = 0, retries = 0, failures = 0;
  for (const auto& lookup : sim.lookups()) {
    // Every submitted lookup completes, dead hops notwithstanding.
    EXPECT_GE(lookup.completed_ms, 0.0);
    EXPECT_GE(lookup.timeouts, lookup.retries);
    timeouts += static_cast<std::uint64_t>(lookup.timeouts);
    retries += static_cast<std::uint64_t>(lookup.retries);
    failures += !lookup.ok;
  }
  EXPECT_EQ(timeouts, sim.totals().timeouts);
  EXPECT_EQ(retries, sim.totals().retries);
  EXPECT_EQ(failures, sim.totals().failures);
  // Retries only spend budget on candidates that eventually get marked
  // failed or answered; each timeout is either retried or a final strike.
  EXPECT_LT(failures, 250u) << "every lookup failed under a 30% crash";
}

TEST(MessageSim, LinkDropsRecoverViaRetries) {
  const auto net = small_net(200, 2, 2006);
  const auto links = build_crescendo(net);
  FaultPlan plan;
  plan.set_drop(0.2, 77);
  MessageSimConfig cfg;
  cfg.timeout_ms = 4.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  SimSinks sinks;
  sinks.fault_plan = &plan;
  sim.attach(sinks);
  const Workload w = make_workload(net, 200, 29);
  submit_all(sim, w, 0.5);
  sim.run();
  EXPECT_GT(sim.totals().link_drops, 0u);
  EXPECT_GT(sim.totals().retries, 0u);
  int ok = 0;
  for (const auto& lookup : sim.lookups()) ok += lookup.ok;
  // 20% per-leg drops with a 3-deep retry ladder and 8 fallback
  // candidates: nearly everything still resolves.
  EXPECT_GE(ok, 190) << ok << "/200 ok";
}

TEST(MessageSim, BoundedInboxDropsAndRecovers) {
  // Everyone asks the same key at the same instant: the owner's inbox
  // (capacity 2) overflows, the overflow recovers via sender timeouts.
  const auto net = small_net(64, 1, 2007);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.inbox_capacity = 2;
  cfg.service_ms = 1.0;
  cfg.timeout_ms = 16.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  const NodeId hot_key = net.id(13);
  for (std::uint32_t i = 0; i < 64; ++i) sim.submit(i, hot_key, 0.0);
  sim.run();
  EXPECT_GT(sim.totals().inbox_drops, 0u);
  std::uint32_t deepest = 0;
  for (const auto d : sim.max_queue_depth()) deepest = std::max(deepest, d);
  EXPECT_LE(deepest, 2u) << "inbox bound not enforced";
  for (const auto& lookup : sim.lookups()) {
    EXPECT_GE(lookup.completed_ms, 0.0);
  }
}

TEST(MessageSim, SinksFeedLoadAndTimeseries) {
  const auto net = small_net(200, 3, 2008);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  telemetry::LoadAccountant load(net.domains(), net.ids());
  telemetry::TimeSeriesRecorder series(5.0);
  SimSinks sinks;
  sinks.load = &load;
  sinks.timeseries = &series;
  sim.attach(sinks);
  const Workload w = make_workload(net, 120, 31);
  submit_all(sim, w, 0.5);
  sim.run();
  // Every completed lookup's frontier path lands in the accountant...
  EXPECT_EQ(load.queries(), 120u);
  EXPECT_EQ(load.ok(), 120u);
  // ...and the recorder sees every submission, completion, and message.
  std::uint64_t issued = 0, completed = 0;
  for (const auto& win : series.windows()) {
    issued += win.issued;
    completed += win.completed;
  }
  EXPECT_EQ(issued, 120u);
  EXPECT_EQ(completed, 120u);
}

TEST(MessageSim, TraceKeepsTheLookupWhoseIdIsZero) {
  // RecordingTraceSink numbers lookups from 0. "Traced" is tracked apart
  // from the id, so the first lookup's hops and end_lookup reach the sink.
  const auto net = small_net(300, 3, 1006);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  telemetry::RecordingTraceSink sink;
  SimSinks sinks;
  sinks.trace = &sink;
  sim.attach(sinks);
  const Workload w = make_workload(net, 20, 11);
  submit_all(sim, w, 1.0);
  sim.run();
  ASSERT_EQ(sink.lookups().size(), 20u);
  std::uint64_t hops = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(sink.lookups()[i].done) << i;
    EXPECT_EQ(static_cast<int>(sink.lookups()[i].hops.size()),
              sim.lookups()[i].hops)
        << i;
    hops += static_cast<std::uint64_t>(sim.lookups()[i].hops);
  }
  EXPECT_EQ(sink.total_hops(), hops);
}

TEST(MessageSim, LatencyIncludesHopsAndService) {
  // A lone lookup never queues: the source's service slot, then per hop a
  // request leg, the target's service slot and a response leg.
  const auto net = small_net(50, 1, 1002);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.service_ms = 0.5;
  cfg.default_hop_ms = 10.0;
  cfg.timeout_ms = 100.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  sim.submit(0, net.id(25), 0.0);
  sim.run();
  const auto& lookup = sim.lookups()[0];
  ASSERT_TRUE(lookup.ok);
  ASSERT_GT(lookup.hops, 0);
  const double want = (lookup.hops + 1) * 0.5 + 2 * lookup.hops * 10.0;
  EXPECT_NEAR(lookup.latency_ms(), want, 1e-9);
}

TEST(MessageSim, BusyNodesQueueMessages) {
  // Two lookups hitting the same single-successor chain at the same time
  // must serialize at the shared nodes.
  std::vector<OverlayNode> nodes = {{0, {}, -1}, {1, {}, -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.service_ms = 1.0;
  cfg.default_hop_ms = 0.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  sim.submit(0, 1, 0.0);  // one hop: node 0 -> node 1
  sim.submit(0, 1, 0.0);  // identical, same instant
  sim.run();
  const auto& a = sim.lookups()[0];
  const auto& b = sim.lookups()[1];
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  // Node 0 serializes the two messages; the second finishes >= 1ms later.
  EXPECT_GE(std::max(a.completed_ms, b.completed_ms), 3.0 - 1e-9);
}

TEST(MessageSim, LoadSumsToMessages) {
  const auto net = small_net(200, 2, 1003);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  Rng rng(9);
  int total_hops = 0;
  const int kLookups = 200;
  for (int t = 0; t < kLookups; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    sim.submit(from, net.space().wrap(rng()), 0.1 * t);
  }
  sim.run();
  for (const auto& lookup : sim.lookups()) total_hops += lookup.hops;
  std::uint64_t load = 0;
  for (const auto l : sim.node_load()) load += l;
  // Every hop delivers one request, plus the initial service at the
  // source.
  EXPECT_EQ(load, static_cast<std::uint64_t>(total_hops + kLookups));
}

TEST(MessageSim, LateTraceAttachBackfillsBeginLookup) {
  // Attaching a trace sink after submit backfills begin_lookup for every
  // pending lookup, so hop and end events carry ids the sink has seen.
  const auto net = small_net(300, 3, 1006);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  Rng rng(11);
  for (int t = 0; t < 20; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    sim.submit(from, net.space().wrap(rng()), static_cast<double>(t));
  }
  telemetry::RecordingTraceSink sink;
  SimSinks sinks;
  sinks.trace = &sink;
  sim.attach(sinks);  // late attach: all 20 lookups are already queued
  sim.run();
  ASSERT_EQ(sink.lookups().size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& traced = sink.lookups()[i];
    const auto& stats = sim.lookups()[i];
    EXPECT_TRUE(traced.done);
    EXPECT_EQ(traced.ok, stats.ok);
    EXPECT_EQ(traced.from, stats.from);
    EXPECT_EQ(traced.key, stats.key);
    EXPECT_EQ(static_cast<int>(traced.hops.size()), stats.hops);
  }
}

TEST(MessageSim, DetachedTraceEmitsNothing) {
  const auto net = small_net(100, 2, 1007);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  telemetry::RecordingTraceSink sink;
  SimSinks sinks;
  sinks.trace = &sink;
  sim.attach(sinks);
  sim.attach(SimSinks{});  // detach before anything is submitted
  sim.submit(0, net.id(50), 0.0);
  sim.run();
  EXPECT_TRUE(sim.lookups()[0].ok);
  EXPECT_TRUE(sink.lookups().empty());
}

TEST(MessageSim, HierarchicalLoadStaysHomogeneous) {
  // The paper's motivation: Canon keeps the flat design's uniform load.
  // Compare the max/mean routing-load ratio of Crescendo vs flat Chord
  // under an identical random workload.
  const auto flat = small_net(500, 1, 1005);
  const auto deep = small_net(500, 4, 1005);
  const auto flat_links = build_crescendo(flat);
  const auto deep_links = build_crescendo(deep);
  double ratios[2];
  const OverlayNetwork* nets[2] = {&flat, &deep};
  const LinkTable* tables[2] = {&flat_links, &deep_links};
  for (int which = 0; which < 2; ++which) {
    MessageSimulator sim(*nets[which], *tables[which]);
    Rng rng(77);
    for (int t = 0; t < 3000; ++t) {
      const auto from =
          static_cast<std::uint32_t>(rng.uniform(nets[which]->size()));
      sim.submit(from, nets[which]->space().wrap(rng()), 0.01 * t);
    }
    sim.run();
    double mean = 0;
    double max = 0;
    for (const auto l : sim.node_load()) {
      mean += static_cast<double>(l);
      max = std::max(max, static_cast<double>(l));
    }
    mean /= static_cast<double>(nets[which]->size());
    ratios[which] = max / mean;
  }
  // The hierarchical structure's load skew stays within 2x of flat Chord's.
  EXPECT_LE(ratios[1], ratios[0] * 2.0);
}

TEST(MessageSim, FaultPlanKillsNodesAtTheScheduledInstant) {
  const auto net = small_net(200, 2, 1006);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  EXPECT_EQ(sim.live_nodes(), net.size());

  // Crash half the network at t=50ms; lookups submitted before the crash
  // complete, traffic sent to dead nodes afterwards times out.
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.5, 99);
  FaultPlan timed;
  for (const FaultEvent& fe : plan.events()) timed.crash(fe.node, 50);
  SimSinks sinks;
  sinks.fault_plan = &timed;
  sim.attach(sinks);

  Rng rng(12);
  for (int t = 0; t < 600; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    sim.submit(from, net.space().wrap(rng()), 0.2 * t);
  }
  sim.run();
  EXPECT_EQ(sim.live_nodes(), net.size() - timed.events().size());

  int failed_before = 0, failed_after = 0, ok_count = 0;
  for (const auto& lookup : sim.lookups()) {
    ok_count += lookup.ok;
    if (!lookup.ok) {
      // A fault-induced failure follows a dead node's silence, which can
      // only start at the crash.
      EXPECT_GE(lookup.completed_ms, 50.0);
      (lookup.issued_ms < 50.0 ? failed_before : failed_after)++;
    }
  }
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(failed_after, 0) << "half the network dead, lookups all fine?";
}

TEST(MessageSim, TimeSeriesCountsSubmissionsCompletionsAndLiveNodes) {
  const auto net = small_net(150, 2, 1007);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  telemetry::TimeSeriesRecorder series(10.0);

  // Attach after one submission: the recorder must backfill it.
  sim.submit(0, net.space().wrap(123456789), 0.0);
  SimSinks sinks;
  sinks.timeseries = &series;
  sim.attach(sinks);

  FaultPlan timed;
  timed.crash(1, 20);
  sinks.fault_plan = &timed;
  sim.attach(sinks);

  Rng rng(3);
  const int kLookups = 200;
  for (int t = 1; t < kLookups; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    sim.submit(from, net.space().wrap(rng()), 0.25 * t);
  }
  sim.run();

  std::uint64_t issued = 0, completed = 0, messages = 0;
  for (const auto& w : series.windows()) {
    issued += w.issued;
    completed += w.completed;
    messages += w.messages;
  }
  EXPECT_EQ(issued, static_cast<std::uint64_t>(kLookups));
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kLookups));
  std::uint64_t total_load = 0;
  for (const auto l : sim.node_load()) total_load += l;
  EXPECT_EQ(messages, total_load);

  // The live-node gauge starts at the full population and drops by one
  // in the window covering the crash.
  const auto& first = series.windows().front();
  EXPECT_EQ(first.live, static_cast<double>(net.size()));
  EXPECT_EQ(series.windows()[series.window_index(20.0)].live,
            static_cast<double>(net.size() - 1));
}

TEST(MessageSim, ValidatesInputs) {
  const auto net = small_net(10, 1, 1004);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  EXPECT_THROW(sim.submit(99, 0, 0.0), std::out_of_range);
  // Starts are sorted by time: a NaN or infinite time has no place.
  EXPECT_THROW(sim.submit(0, 0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(sim.submit(0, 0, HUGE_VAL), std::invalid_argument);
  EXPECT_TRUE(sim.lookups().empty());
}

TEST(MessageSim, ValidatesConfigAndInputs) {
  const auto net = small_net(32, 1, 2009);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.alpha = 0;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.alpha = kMaxStepCandidates + 1;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.service_ms = 0;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.inbox_capacity = 0;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  MessageSimulator sim(net, links);
  EXPECT_THROW(sim.submit(99, 0, 0.0), std::out_of_range);
}

TEST(MessageSim, ByteIdenticalAtAnyThreadCount) {
  // The engine is serial and heap-ordered by (time, seq); the process-wide
  // thread knob must not leak into any number it produces — the contract
  // behind ctest's bench_query_determinism_congestion.
  const auto net = small_net(256, 3, 2010);
  const auto links = build_crescendo(net);
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.2, 55);
  plan.set_drop(0.05, 56);

  std::string baseline;
  for (const int threads : {1, 2, 7}) {
    set_parallel_threads(threads);
    MessageSimConfig cfg;
    cfg.alpha = 2;
    cfg.timeout_ms = 4.0;
    MessageSimulator sim(net, links, {}, {}, cfg);
    SimSinks sinks;
    sinks.fault_plan = &plan;
    sim.attach(sinks);
    const Workload w = make_workload(net, 300, 37);
    submit_all(sim, w, 0.25);
    sim.run();
    const std::string fp = fingerprint(sim);
    if (baseline.empty()) {
      baseline = fp;
      EXPECT_GT(sim.totals().timeouts, 0u);  // the run exercises faults
    } else {
      EXPECT_EQ(fp, baseline) << "report differs at --threads=" << threads;
    }
  }
  set_parallel_threads(0);
}

TEST(MessageSim, ResponseOnTheDeadlineLosesToTheTimeout) {
  // The timeout's sequence number is taken when the request is sent, the
  // response's only when the target has serviced it, so a response that
  // lands exactly on the deadline pops second: the attempt times out and
  // is resent, and the late response is ignored.
  std::vector<OverlayNode> nodes = {{0, {}, -1}, {1, {}, -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.default_hop_ms = 1.0;
  cfg.service_ms = 2.0;
  cfg.timeout_ms = 4.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  sim.submit(0, 1, 0.0);
  sim.run();
  const auto& lookup = sim.lookups()[0];
  // Source service [0, 2), request lands at 3, service [3, 5), response
  // lands at 6 == 2 + timeout_ms. The resend at 6 lands at 7, is serviced
  // in [7, 9) and answers at 10, well inside its 8 ms deadline.
  EXPECT_TRUE(lookup.ok);
  EXPECT_EQ(lookup.hops, 1);
  EXPECT_EQ(lookup.timeouts, 1);
  EXPECT_EQ(lookup.retries, 1);
  EXPECT_DOUBLE_EQ(lookup.completed_ms, 10.0);
  EXPECT_EQ(sim.totals().sent, 2u);
  EXPECT_EQ(sim.node_load()[1], 2u);
  // The resend's deadline (6 + 8) is the last thing on the clock.
  EXPECT_DOUBLE_EQ(sim.now_ms(), 14.0);
}

TEST(MessageSim, StaleTimeoutsCarryTheClockAndTheFaults) {
  // A lone lookup answers long before its 100 ms deadline. The clock
  // still runs out to that deadline, and the faults scheduled before it
  // are applied (and journaled) while the ones after it are not.
  std::vector<OverlayNode> nodes = {{0, {}, -1}, {1, {}, -1}, {2, {}, -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.default_hop_ms = 1.0;
  cfg.service_ms = 2.0;
  cfg.timeout_ms = 100.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  FaultPlan plan;
  plan.crash(2, 50);   // inside the stale tail: applied
  plan.crash(1, 500);  // after the last deadline: not applied
  std::ostringstream journal_out;
  telemetry::EventJournal journal(journal_out);
  SimSinks sinks;
  sinks.fault_plan = &plan;
  sinks.journal = &journal;
  sim.attach(sinks);
  sim.submit(0, 1, 0.0);
  sim.run();
  const auto& lookup = sim.lookups()[0];
  EXPECT_TRUE(lookup.ok);
  EXPECT_DOUBLE_EQ(lookup.completed_ms, 6.0);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 102.0);  // sent at 2, deadline 2 + 100
  EXPECT_EQ(sim.live_nodes(), 2u);
  EXPECT_NE(journal_out.str().find("\"crash\""), std::string::npos);
  EXPECT_EQ(journal.events(), 1u);
}

TEST(MessageSim, RequestSlowerThanItsTimeoutFailsOnTime) {
  // Lookup A's request needs 10 ms on a link whose timeout is 4 ms: its
  // timeout must fire at the deadline, before the request lands, so A
  // fails at 5 ms, ahead of lookup B, which fails at 8 ms on a dead
  // target. One candidate and one attempt each.
  std::vector<OverlayNode> nodes = {
      {0, {}, -1}, {1, {}, -1}, {2, {}, -1}, {3, {}, -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.service_ms = 1.0;
  cfg.timeout_ms = 4.0;
  cfg.retry_budget = 1;
  cfg.candidates = 1;
  const HopCost cost = [](NodeIndex a, NodeIndex b) {
    return a == 1 || b == 1 ? 10.0 : 1.0;
  };
  MessageSimulator sim(net, links, {}, cost, cfg);
  FaultPlan plan;
  plan.crash(3, 0);
  std::ostringstream journal_out;
  telemetry::EventJournal journal(journal_out);
  SimSinks sinks;
  sinks.fault_plan = &plan;
  sinks.journal = &journal;
  sim.attach(sinks);
  sim.submit(0, 1, 0.0);  // A: sent at 1, deadline 5, lands at 11
  sim.submit(2, 3, 3.0);  // B: sent at 4 to a dead node, deadline 8
  sim.run();
  const auto& a = sim.lookups()[0];
  const auto& b = sim.lookups()[1];
  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(b.ok);
  EXPECT_DOUBLE_EQ(a.completed_ms, 5.0);
  EXPECT_DOUBLE_EQ(b.completed_ms, 8.0);
  EXPECT_EQ(a.timeouts, 1);
  EXPECT_EQ(b.timeouts, 1);
  // A's request still lands and is serviced after A gave up.
  EXPECT_EQ(sim.node_load()[1], 1u);
  const std::string lines = journal_out.str();
  const auto a_at = lines.find("\"from\":0");
  const auto b_at = lines.find("\"from\":2");
  ASSERT_NE(a_at, std::string::npos) << lines;
  ASSERT_NE(b_at, std::string::npos) << lines;
  EXPECT_LT(a_at, b_at) << "A's failure is journaled after B's";
}

/// FNV-1a over bytes.
std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct GoldenCase {
  int alpha = 1;
  int inbox = 64;
  double drop = 0;
  bool faults = false;
  bool tied = false;  ///< all-tied submissions, else non-monotone
};

struct GoldenRun {
  std::string fingerprint, series, journal;
  MessageSimulator::Totals totals;
};

/// Two waves of lookups (the second submitted after the first run()) on a
/// hot-key workload, with every sink the digests read attached.
GoldenRun run_golden_case(const OverlayNetwork& net, const LinkTable& links,
                          const Stepper& stepper, const GoldenCase& c) {
  MessageSimConfig cfg;
  cfg.alpha = c.alpha;
  cfg.inbox_capacity = c.inbox;
  cfg.service_ms = 0.5;
  cfg.timeout_ms = 6.0;
  // Quarter-millisecond link latencies: exact in binary, so many events
  // tie on time and the sequence tie-break decides their order.
  const HopCost cost = [](NodeIndex a, NodeIndex b) {
    return 0.5 + 0.25 * static_cast<double>((a * 7 + b * 3) % 9);
  };
  MessageSimulator sim(net, links, stepper, cost, cfg);
  FaultPlan plan;
  if (c.faults) {
    plan.crash(3, 2);
    plan.crash(17, 7);
    plan.crash(29, 11);
    plan.revive(17, 30);
    plan.crash(40, 45);
    plan.revive(3, 60);
    plan.crash(51, 90);
    plan.revive(29, 140);
    plan.crash(8, 260);
    plan.revive(40, 400);
  }
  if (c.drop > 0) plan.set_drop(c.drop, 4242);
  std::ostringstream journal_out;
  telemetry::EventJournal journal(journal_out);
  telemetry::TimeSeriesRecorder series(5.0);
  SimSinks sinks;
  sinks.fault_plan = &plan;
  sinks.journal = &journal;
  sinks.timeseries = &series;
  sinks.snapshot_top_k = 3;
  sinks.snapshot_window_ms = 4.0;
  sim.attach(sinks);

  Rng rng(606);
  const NodeId hot[] = {net.id(5), net.id(33), net.id(70)};
  const auto wave = [&](int count, double base, int stride, int modulus) {
    for (int i = 0; i < count; ++i) {
      const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
      const NodeId key = i % 3 == 0 ? net.space().wrap(rng()) : hot[i % 3];
      const double at =
          c.tied ? base
                 : base + 0.5 * static_cast<double>((i * stride) % modulus);
      sim.submit(from, key, at);
    }
  };
  wave(48, 0.0, 37, 23);
  sim.run();
  // The second wave starts partly before the clock the first one left.
  EXPECT_GT(sim.now_ms(), 5.0);
  wave(24, 5.0, 13, 97);
  sim.run();
  return {fingerprint(sim), series.to_json().dump(), journal_out.str(),
          sim.totals()};
}

TEST(MessageSimGolden, DigestsAcrossTheConfigGrid) {
  // Digests of the fingerprint, the time series JSON and the journal,
  // recorded before the engine kept timeouts off the heap until they can
  // fire and streamed the starts. Each row folds the 16 combinations of
  // inbox {2, 64} x drop {0, 0.15} x faults {off, on} x timing {tied,
  // non-monotone} for one stepper and alpha.
  struct Row {
    const char* family;
    int alpha;
    const char* fingerprint;
    const char* series;
    const char* journal;
  };
  const Row rows[] = {
      {"crescendo", 1, "217f860107ac939d", "fc8981533f30ef88",
       "4cc6f3dd7ba403fa"},
      {"crescendo", 2, "c5dfdc6379462974", "999d4cfb77fcfa8e",
       "89a1b1241f49f46a"},
      {"crescendo", 3, "8f0888a62d80619d", "4f1a0748bbe5d6b7",
       "2ebc18394ed5fc8d"},
      {"kademlia", 1, "f07984be20bad2a6", "a4d682d5bf572d6f",
       "55c618ae936b70ca"},
      {"kademlia", 2, "6f30da1634b8f786", "71ee8427a1a15ecc",
       "308017271f54c34d"},
      {"kademlia", 3, "cabd8848b24963ab", "bf07492934daeeb8",
       "003dcc02dc252d42"},
  };
  const auto net = small_net(96, 3, 2011);
  MessageSimulator::Totals seen;
  for (const Row& row : rows) {
    const auto links = registry::build_family(net, row.family, 2011);
    const Stepper stepper =
        registry::family(row.family).make_stepper(net, links);
    std::string fps, series, journals;
    for (const int inbox : {2, 64}) {
      for (const double drop : {0.0, 0.15}) {
        for (const bool faults : {false, true}) {
          for (const bool tied : {true, false}) {
            const GoldenRun run = run_golden_case(
                net, links, stepper, {row.alpha, inbox, drop, faults, tied});
            seen.timeouts += run.totals.timeouts;
            seen.inbox_drops += run.totals.inbox_drops;
            seen.link_drops += run.totals.link_drops;
            seen.failures += run.totals.failures;
            fps += fnv1a_hex(run.fingerprint);
            series += fnv1a_hex(run.series);
            journals += fnv1a_hex(run.journal);
          }
        }
      }
    }
    const std::string where =
        std::string(row.family) + " alpha=" + std::to_string(row.alpha);
    EXPECT_EQ(fnv1a_hex(fps), row.fingerprint) << where;
    EXPECT_EQ(fnv1a_hex(series), row.series) << where;
    EXPECT_EQ(fnv1a_hex(journals), row.journal) << where;
  }
  // The grid reaches every path the digests are meant to pin.
  EXPECT_GT(seen.timeouts, 0u);
  EXPECT_GT(seen.inbox_drops, 0u);
  EXPECT_GT(seen.link_drops, 0u);
  EXPECT_GT(seen.failures, 0u);
}

TEST(MessageSim, ConcurrentSimulatorsMatchTheirSerialRuns) {
  // Simulators share the network, link table and stepper read-only, so
  // eight of them running at once on the worker pool (as perfbench and
  // ablation_congestion run them) must each reproduce its serial run.
  const auto net = small_net(256, 3, 2012);
  const auto links = build_crescendo(net);
  const Stepper stepper =
      registry::family("crescendo").make_stepper(net, links);
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.1, 57);
  plan.set_drop(0.05, 58);
  constexpr std::size_t kSims = 8;
  const auto simulate = [&](std::size_t k) {
    MessageSimConfig cfg;
    cfg.alpha = 1 + static_cast<int>(k % 3);
    cfg.timeout_ms = 4.0;
    cfg.inbox_capacity = k % 2 == 0 ? 4 : 64;
    MessageSimulator sim(net, links, stepper, {}, cfg);
    SimSinks sinks;
    sinks.fault_plan = &plan;
    sim.attach(sinks);
    submit_all(sim, make_workload(net, 200, 40 + k), 0.1);
    sim.run();
    return fingerprint(sim);
  };
  std::vector<std::string> serial(kSims);
  for (std::size_t k = 0; k < kSims; ++k) serial[k] = simulate(k);
  set_parallel_threads(4);
  std::vector<std::string> concurrent(kSims);
  parallel_for(kSims, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) concurrent[k] = simulate(k);
  });
  set_parallel_threads(0);
  for (std::size_t k = 0; k < kSims; ++k) {
    EXPECT_EQ(concurrent[k], serial[k]) << "simulator " << k;
  }
}

}  // namespace
}  // namespace canon
