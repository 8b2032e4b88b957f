// The resilience-engine contracts, pinned per family through the registry:
//
//   1. Zero cost when healthy: run_resilient with an empty FaultPlan is
//      field- and per-query-identical to the plain batch engine.
//   2. Graceful degradation: success rates are monotone non-increasing in
//      the kill fraction (fail_fraction's kill sets are nested).
//   3. Thread invariance: resilient batches — faults, drops and all — are
//      identical at every --threads.
//   4. Journaled faults: materialize() records every crash with strict
//      sequence numbers, and the engine journals before routing.
//   5. Drop-retry: transient drops cost retries, not correctness, within
//      the per-hop retry budget.
//   6. Golden digests: the exact healthy and faulty outcomes and α=4
//      stepper rankings of the nine ring/XOR families, the two CAN
//      families and the two group families are pinned, as are the
//      Symphony lookahead outcomes, so a rewrite of the greedy kernels or
//      the zone index cannot silently change a terminal, a hop count, a
//      retry tally or a runner-up's rank.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/journal.h"

namespace canon {
namespace {

constexpr std::uint64_t kSeed = 20260806;

/// Restores the default thread count even if an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

OverlayNetwork make_net(std::size_t n = 256) {
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 4;
  Rng rng(kSeed);
  return make_population(spec, rng);
}

void expect_same_base(const QueryStats& plain, const ResilientStats& res,
                      std::string_view family) {
  EXPECT_EQ(res.base.queries, plain.queries) << family;
  EXPECT_EQ(res.base.failures, plain.failures) << family;
  EXPECT_EQ(res.base.total_hops, plain.total_hops) << family;
  EXPECT_EQ(res.base.hops.count(), plain.hops.count()) << family;
  EXPECT_EQ(res.base.hops.mean(), plain.hops.mean()) << family;
  EXPECT_EQ(res.skipped_dead_source, 0u) << family;
  EXPECT_EQ(res.retries, 0u) << family;
  EXPECT_EQ(res.fallback_hops, 0u) << family;
}

TEST(FaultInjection, EmptyPlanMatchesPlainEngineEveryFamily) {
  const auto net = make_net();
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 400, Rng(kSeed).fork(7));
  const FaultPlan empty;
  for (const auto& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, kSeed);
    const auto router = entry.make_router(net, links);
    std::vector<RouteProbe> plain_probes;
    std::vector<RouteProbe> res_probes;
    const QueryStats plain = router.run(engine, queries, &plain_probes);
    const ResilientStats res =
        router.run_resilient(engine, queries, empty, &res_probes);
    expect_same_base(plain, res, entry.name);
    EXPECT_EQ(res_probes, plain_probes) << entry.name;
  }
}

TEST(FaultInjection, SuccessMonotoneInKillFractionEveryFamily) {
  const auto net = make_net();
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 400, Rng(kSeed).fork(7));
  for (const auto& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, kSeed);
    const auto router = entry.make_router(net, links);
    double prev = 2.0;
    for (const double fraction : {0.0, 0.1, 0.3, 0.5}) {
      const FaultPlan plan =
          FaultPlan::fail_fraction(net.size(), fraction, kSeed);
      const ResilientStats st = router.run_resilient(engine, queries, plan);
      // Non-increasing up to a small slack: a deeper kill set also removes
      // sources (their queries leave the attempted pool) and reassigns
      // live responsibility, so individual lookups can flip to success
      // even though the population degrades.
      EXPECT_LE(st.success_rate(), prev + 0.02)
          << entry.name << " at fraction " << fraction;
      if (fraction == 0.0) {
        EXPECT_EQ(st.success_rate(), 1.0) << entry.name;
      }
      prev = st.success_rate();
    }
  }
}

TEST(FaultInjection, ResilientBatchesAreThreadInvariant) {
  const auto net = make_net();
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 700, Rng(kSeed).fork(7));
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.3, kSeed);
  plan.set_drop(0.05);
  ThreadGuard guard;
  for (const auto& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, kSeed);
    const auto router = entry.make_router(net, links);
    set_parallel_threads(1);
    std::vector<RouteProbe> base_probes;
    const ResilientStats base =
        router.run_resilient(engine, queries, plan, &base_probes);
    for (const int threads : {2, 7}) {
      set_parallel_threads(threads);
      std::vector<RouteProbe> probes;
      const ResilientStats st =
          router.run_resilient(engine, queries, plan, &probes);
      EXPECT_EQ(probes, base_probes)
          << entry.name << " at threads=" << threads;
      EXPECT_EQ(st.base.queries, base.base.queries) << entry.name;
      EXPECT_EQ(st.base.failures, base.base.failures) << entry.name;
      EXPECT_EQ(st.base.total_hops, base.base.total_hops) << entry.name;
      EXPECT_EQ(st.skipped_dead_source, base.skipped_dead_source)
          << entry.name;
      EXPECT_EQ(st.retries, base.retries) << entry.name;
      EXPECT_EQ(st.fallback_hops, base.fallback_hops) << entry.name;
    }
  }
}

TEST(FaultInjection, MaterializeJournalsEveryCrashWithStrictSeq) {
  const auto net = make_net();
  const FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.3, kSeed);
  std::stringstream out;
  telemetry::EventJournal journal(out);
  const FailureSet dead = plan.materialize(net, &journal);
  EXPECT_GT(dead.dead_count(), 0u);
  // read_journal itself throws unless seq is exactly 0,1,2,...
  const auto events = telemetry::read_journal(out);
  ASSERT_EQ(events.size(), dead.dead_count());
  for (const auto& e : events) {
    EXPECT_EQ(e.get("type")->as_string(), "crash");
    const auto node = static_cast<std::uint32_t>(e.get("node")->as_int());
    EXPECT_TRUE(dead.dead(node));
    EXPECT_EQ(static_cast<std::uint64_t>(e.get("id")->as_int()),
              net.id(node));
    ASSERT_NE(e.get("at"), nullptr);
  }
}

TEST(FaultInjection, EngineJournalsCrashesBeforeRouting) {
  const auto net = make_net();
  QueryEngine engine(net);
  std::stringstream out;
  telemetry::EventJournal journal(out);
  engine.set_journal(&journal);
  const auto queries = uniform_workload(net, 50, Rng(kSeed).fork(7));
  const LinkTable links = registry::build_family(net, "crescendo", kSeed);
  const auto router = registry::family("crescendo").make_router(net, links);
  FaultPlan plan;
  plan.crash(3);
  plan.crash(17, /*at=*/5);
  plan.revive(3, /*at=*/9);
  router.run_resilient(engine, queries, plan);
  const auto events = telemetry::read_journal(out);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].get("type")->as_string(), "crash");
  EXPECT_EQ(events[1].get("type")->as_string(), "crash");
  EXPECT_EQ(events[2].get("type")->as_string(), "revive");
  EXPECT_EQ(events[2].get("node")->as_int(), 3);
}

TEST(FaultInjection, DropsCostRetriesNotCorrectness) {
  const auto net = make_net();
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 400, Rng(kSeed).fork(7));
  const LinkTable links = registry::build_family(net, "crescendo", kSeed);
  const auto router = registry::family("crescendo").make_router(net, links);
  FaultPlan plan;  // drops only, nobody dead
  plan.set_drop(0.05);
  const ResilientStats st = router.run_resilient(engine, queries, plan);
  EXPECT_GT(st.retries, 0u);
  EXPECT_EQ(st.skipped_dead_source, 0u);
  // Mid-route drops are retried on alternate candidates, but a dropped
  // candidate stays banned for the hop, so a drop on a hop whose only
  // viable candidate is the destination can still lose the lookup: loss
  // stays well under the raw drop rate, not at zero.
  EXPECT_GE(st.success_rate(), 1.0 - 0.05);
  EXPECT_LT(st.base.failures, st.base.queries / 10);
}

TEST(FaultInjection, NestedKillSetsAreActuallyNested) {
  const auto net = make_net();
  const FailureSet d10 =
      FaultPlan::fail_fraction(net.size(), 0.1, kSeed).materialize(net);
  const FailureSet d30 =
      FaultPlan::fail_fraction(net.size(), 0.3, kSeed).materialize(net);
  EXPECT_GT(d30.dead_count(), d10.dead_count());
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (d10.dead(i)) {
      EXPECT_TRUE(d30.dead(i)) << i;
    }
  }
}

/// FNV-1a over 64-bit words: a platform-independent digest of integer
/// outcomes.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

struct GoldenDigests {
  const char* family;
  const char* healthy;  ///< per-query (terminal, hops, ok) of a plain batch
  const char* faulty;   ///< per-query (terminal, hops, ok) + retry tallies
  const char* stepper;  ///< α=4 candidate lists of 200 (node, key) pairs
  bool falls_back = true;  ///< the faulty batch takes fallback hops
};

/// Digests `family`'s healthy batch, faulty batch (10% crashes, 1% drops)
/// and α=4 stepper rankings at 512 nodes and compares them to `golden`.
void expect_golden(const GoldenDigests& golden) {
  const auto net = make_net(512);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 600, Rng(kSeed).fork(11));
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.10, kSeed);
  plan.set_drop(0.01);
  const auto& entry = registry::family(golden.family);
  const LinkTable links = registry::build_family(net, entry.name, kSeed);
  const registry::FamilyRouter router = entry.make_router(net, links);

  const auto add_probes = [](Digest& d, const std::vector<RouteProbe>& ps) {
    for (const RouteProbe& p : ps) {
      d.add(p.terminal);
      d.add(static_cast<std::uint64_t>(p.hops));
      d.add(p.ok);
    }
  };

  Digest healthy;
  std::vector<RouteProbe> probes;
  router.run(engine, queries, &probes);
  add_probes(healthy, probes);
  EXPECT_EQ(healthy.hex(), golden.healthy) << golden.family;

  Digest faulty;
  const ResilientStats st = router.run_resilient(engine, queries, plan, &probes);
  add_probes(faulty, probes);
  faulty.add(st.retries);
  faulty.add(st.fallback_hops);
  EXPECT_GT(st.retries, 0u) << golden.family;
  if (golden.falls_back) {
    EXPECT_GT(st.fallback_hops, 0u) << golden.family;
  } else {
    EXPECT_EQ(st.fallback_hops, 0u) << golden.family;
  }
  EXPECT_EQ(faulty.hex(), golden.faulty) << golden.family;

  Digest ranked;
  const Stepper step = entry.make_stepper(net, links);
  Rng rng(kSeed + 1);
  std::array<NodeIndex, 4> cand{};
  for (int i = 0; i < 200; ++i) {
    const auto at = static_cast<NodeIndex>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    std::uint64_t state = 0;
    const StepResult r = step(at, key, state, cand);
    ranked.add(static_cast<std::uint64_t>(r.count));
    ranked.add(r.done);
    ranked.add(r.ok);
    for (int c = 0; c < r.count; ++c) ranked.add(cand[c]);
  }
  EXPECT_EQ(ranked.hex(), golden.stepper) << golden.family;
}

TEST(FaultInjection, GoldenDigestsOfRingAndXorFamilies) {
  constexpr std::array<GoldenDigests, 9> kGolden = {{
      {"chord", "60e4b907b4c888c9",
       "0808d811ba4acb1d", "013229e5a945e496"},
      {"symphony", "9a3a2f27199146fa",
       "5c9c15ccdf57f8ca", "34492274f0dc449d"},
      {"nondet_chord", "4d09d1710abe571a",
       "45b42b30e68d6c40", "861e39e8734b5005"},
      {"kademlia", "c3cf605e27cc88d1",
       "2357d9fd5ad87479", "2747075b3bdcfb75"},
      {"crescendo", "cd4a723174841908",
       "4c2d4bb57117025f", "96a99dc6fa188c0a"},
      {"clique_crescendo", "c6b20084cc2a68f1",
       "12e98725b5504a78", "3a56a729803d5be9"},
      {"cacophony", "9eeb96a24771be2a",
       "d57de09132d1fa35", "7ff0bee9f5b878e4"},
      {"nondet_crescendo", "d1ec3dc67926686d",
       "89fe897999fb76f7", "8ef96d41d6ce0fa4"},
      {"kandy", "0182bcc529162cd9",
       "b3a3c0520a498a8f", "eec14566b9e0a42a"},
  }};
  for (const auto& golden : kGolden) expect_golden(golden);
}

TEST(FaultInjection, GoldenDigestsOfCanFamilies) {
  constexpr std::array<GoldenDigests, 2> kGolden = {{
      {"can", "41ef26b9254b654d", "30f17b4e1cda19c5", "1a598e2768dcf90a"},
      {"cancan", "a2ff6b2abfc42f5e", "f7caab585d49f64a",
       "8d78566f8361b3b3"},
  }};
  for (const auto& golden : kGolden) expect_golden(golden);
}

TEST(FaultInjection, GoldenDigestsOfGroupFamilies) {
  // Greedy on group distance never lacks a live candidate that a sidestep
  // could find, so these families take no fallback hops.
  constexpr std::array<GoldenDigests, 2> kGolden = {{
      {"chord_prox", "ba6c4d82272fc50a", "bde1bfe7b676b29b",
       "a161769a1885d8ee", false},
      {"crescendo_prox", "27684bb2e1efea97", "75fcf9b0c0bf83ef",
       "caee9adb7d9a86f3", false},
  }};
  for (const auto& golden : kGolden) expect_golden(golden);
}

TEST(FaultInjection, GoldenDigestsOfLookahead) {
  // Per-query (terminal, hops, ok) of probe_lookahead at 512 nodes.
  const auto net = make_net(512);
  const auto queries = uniform_workload(net, 600, Rng(kSeed).fork(12));
  for (const auto& [family, golden] :
       {std::pair{"symphony", "06229b33ea02c483"},
        std::pair{"cacophony", "ad13cca22f30e461"}}) {
    const LinkTable links = registry::build_family(net, family, kSeed);
    const RingRouter router(net, links);
    Digest d;
    for (const Query& q : queries) {
      const RouteProbe p = router.probe_lookahead(q.from, q.key);
      d.add(p.terminal);
      d.add(static_cast<std::uint64_t>(p.hops));
      d.add(p.ok);
    }
    EXPECT_EQ(d.hex(), golden) << family;
  }
}

}  // namespace
}  // namespace canon
