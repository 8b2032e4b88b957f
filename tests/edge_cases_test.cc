// Edge-case coverage across modules: degenerate populations, extreme ID
// widths, grouped overlays with one group, CAN multi-zone ownership, the
// CAN and group families' paths on degenerate hierarchies, empty stepper
// spans, and store behavior at boundaries.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "audit/auditor.h"
#include "canon/cancan.h"
#include "canon/crescendo.h"
#include "canon/proximity.h"
#include "common/rng.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "overlay/family_registry.h"
#include "overlay/message_sim.h"
#include "overlay/metrics.h"
#include "overlay/population.h"
#include "overlay/routing.h"
#include "storage/hierarchical_store.h"

namespace canon {
namespace {

TEST(EdgeCases, SixtyFourBitIdSpace) {
  Rng rng(1101);
  PopulationSpec spec;
  spec.node_count = 200;
  spec.id_bits = 64;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 3;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 100; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = rng();
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.responsible(key));
  }
}

TEST(EdgeCases, EveryRouterRejectsAnotherNetworksLinkTable) {
  // A table built for a smaller network would be indexed past its CSR
  // offsets by the larger network's node indices. One built for a network
  // of the same size but other ids carries inline ids that are not the
  // network's, so the ring routers' predecessor search would pick wrong
  // hops. Every router, the simulator and the auditor must refuse both up
  // front.
  Rng rng(1102);
  PopulationSpec spec;
  spec.node_count = 64;
  const auto small = make_population(spec, rng);
  spec.node_count = 512;
  const auto net = make_population(spec, rng);
  Rng other_rng(2203);
  const auto same_size = make_population(spec, other_rng);
  ASSERT_EQ(same_size.size(), net.size());
  const LinkTable smaller = build_crescendo(small);
  const LinkTable other_ids = build_crescendo(same_size);
  const ZoneTree tree(net, net.ring().members());
  const CanCanZones zones(net);
  const GroupedOverlay groups(net, 8);
  using Make = std::function<void(const LinkTable&)>;
  const std::vector<std::pair<const char*, Make>> constructors = {
      {"RingRouter", [&](const LinkTable& t) { RingRouter(net, t); }},
      {"XorRouter", [&](const LinkTable& t) { XorRouter(net, t); }},
      {"GroupRouter", [&](const LinkTable& t) { GroupRouter(net, groups, t); }},
      {"CanRouter", [&](const LinkTable& t) { CanRouter(net, tree, t); }},
      {"CanCanRouter", [&](const LinkTable& t) { CanCanRouter(zones, t); }},
      {"MessageSimulator",
       [&](const LinkTable& t) { MessageSimulator(net, t); }},
      {"StructureAuditor",
       [&](const LinkTable& t) { audit::StructureAuditor(net, t); }},
  };
  for (const auto& [name, make] : constructors) {
    EXPECT_THROW(make(smaller), std::invalid_argument) << name;
    EXPECT_THROW(make(other_ids), std::invalid_argument) << name;
  }
}

TEST(EdgeCases, OneBitIdSpace) {
  std::vector<OverlayNode> nodes = {{0, {}, -1}, {1, {}, -1}};
  const OverlayNetwork net(IdSpace(1), std::move(nodes));
  const auto links = build_chord(net);
  EXPECT_TRUE(links.has_link(0, 1));
  EXPECT_TRUE(links.has_link(1, 0));
  const RingRouter router(net, links);
  EXPECT_EQ(router.route(0, 1).terminal(), 1u);
  EXPECT_EQ(router.route(1, 0).terminal(), 0u);
}

TEST(EdgeCases, DenseIdSpaceEveryIdTaken) {
  // All 16 IDs of a 4-bit space occupied.
  std::vector<OverlayNode> nodes;
  for (NodeId id = 0; id < 16; ++id) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_chord(net);
  const RingRouter router(net, links);
  for (NodeId key = 0; key < 16; ++key) {
    const Route r = router.route(0, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(net.id(r.terminal()), key);  // every key has an exact owner
  }
}

TEST(EdgeCases, GroupedOverlaySingleGroup) {
  Rng rng(1102);
  PopulationSpec spec;
  spec.node_count = 8;
  const auto net = make_population(spec, rng);
  // Target size bigger than the population: one group, T == 0 ... or tiny.
  const GroupedOverlay groups(net, 100);
  EXPECT_EQ(groups.prefix_bits(), 0);
  EXPECT_EQ(groups.groups().size(), 1u);
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(groups.group_index_of(i), 0);
  }
  // The responsible node degenerates to the plain predecessor rule.
  for (int t = 0; t < 50; ++t) {
    const NodeId key = net.space().wrap(rng());
    EXPECT_EQ(groups.responsible(key), net.responsible(key));
  }
}

TEST(EdgeCases, GroupRouterWithSingleGroupUsesClique) {
  Rng rng(1103);
  PopulationSpec spec;
  spec.node_count = 16;
  const auto net = make_population(spec, rng);
  const GroupedOverlay groups(net, 100);
  const HopCost cost = [](std::uint32_t, std::uint32_t) { return 1.0; };
  const ProximityConfig cfg;
  Rng brng(1);
  const auto links = build_chord_prox(net, groups, cost, cfg, brng);
  const GroupRouter router(net, groups, links);
  for (int t = 0; t < 50; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_LE(r.hops(), 1);  // clique: at most one hop
  }
}

TEST(EdgeCases, ZoneTreeMultiZoneOwnership) {
  // IDs clustered in the low half of an 8-bit space force empty-sibling
  // blocks whose owners hold several zones.
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {1, 2, 3, 5}) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(8), std::move(nodes));
  const auto can = build_can(net);
  std::size_t zones = 0;
  bool someone_owns_many = false;
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const auto owned = can.tree.zones_of(m);
    zones += owned.size();
    someone_owns_many |= owned.size() > 1;
    // Primary zone always contains the owner's ID.
    const auto z = can.tree.zone(m);
    const int shift = 8 - z.len;
    EXPECT_EQ(net.id(m) >> shift, z.prefix >> shift);
  }
  EXPECT_TRUE(someone_owns_many);
  // Zones partition the space: total size == 256.
  std::uint64_t covered = 0;
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    for (const auto& z : can.tree.zones_of(m)) {
      covered += std::uint64_t{1} << (8 - z.len);
    }
  }
  EXPECT_EQ(covered, 256u);
}

TEST(EdgeCases, ZoneTreeMatchLenUsesAllZones) {
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {0x10, 0x80}) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(8), std::move(nodes));
  const RingView ring = net.ring();
  const ZoneTree tree(net, ring.members());
  // Node 0x10 owns [0x00,0x80); node 0x80 owns [0x80,0x100).
  EXPECT_EQ(tree.owner_of(0x7F), net.index_of(0x10));
  EXPECT_EQ(tree.owner_of(0xFF), net.index_of(0x80));
  EXPECT_EQ(tree.match_len(net.index_of(0x10), 0x00), 1);
}

TEST(EdgeCases, StoreOnFlatPopulationBehavesLikePlainDht) {
  Rng rng(1104);
  PopulationSpec spec;
  spec.node_count = 100;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  HierarchicalStore store(net, links);
  const NodeId key = net.space().wrap(rng());
  // Only level 0 exists.
  EXPECT_THROW(store.put(0, key, "x", 1, 1), std::invalid_argument);
  store.put(0, key, "x", 0, 0);
  EXPECT_EQ(store.get(55, key).value, "x");
}

TEST(EdgeCases, MulticastSingleRoute) {
  MulticastTree tree;
  Route r;
  r.path = {4};
  tree.add_route(r);  // zero-hop route contributes no edges
  EXPECT_EQ(tree.edge_count(), 0u);
}

TEST(EdgeCases, RaggedHierarchyRoutesFine) {
  // Mixed depths: some nodes directly under root, some 3 levels deep.
  Rng rng(1105);
  const auto ids = sample_unique_ids(120, IdSpace(24), rng);
  std::vector<OverlayNode> nodes;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    DomainPath path;
    switch (i % 3) {
      case 0:
        path = DomainPath{};
        break;
      case 1:
        path = DomainPath({static_cast<std::uint16_t>(i % 4)});
        break;
      default:
        path = DomainPath({static_cast<std::uint16_t>(i % 4),
                           static_cast<std::uint16_t>(i % 2), 0});
        break;
    }
    nodes.push_back({ids[i], path, -1});
  }
  const OverlayNetwork net(IdSpace(24), std::move(nodes));
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 200; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
  }
}

/// A population over a 20-bit space whose node i sits at `path(i)`.
OverlayNetwork shaped_net(std::size_t n, std::uint64_t seed,
                          const std::function<DomainPath(std::size_t)>& path) {
  Rng rng(seed);
  const auto ids = sample_unique_ids(n, IdSpace(20), rng);
  std::vector<OverlayNode> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back({ids[i], path(i), -1});
  return OverlayNetwork(IdSpace(20), std::move(nodes));
}

/// Random and degenerate hierarchies: one and two nodes, a single leaf
/// domain, all-singleton leaves, ragged depths and a random Zipf shape.
std::vector<std::pair<const char*, OverlayNetwork>> can_shapes() {
  const auto u16 = [](std::size_t v) { return static_cast<std::uint16_t>(v); };
  std::vector<std::pair<const char*, OverlayNetwork>> shapes;
  shapes.emplace_back("one node", shaped_net(1, 1, [](std::size_t) {
                        return DomainPath{1, 2};
                      }));
  shapes.emplace_back("two nodes, one leaf", shaped_net(2, 2, [](std::size_t) {
                        return DomainPath{0, 3};
                      }));
  shapes.emplace_back("two nodes, two leaves",
                      shaped_net(2, 3, [&](std::size_t i) {
                        return DomainPath({u16(i)});
                      }));
  shapes.emplace_back("single leaf domain", shaped_net(96, 4, [](std::size_t) {
                        return DomainPath{2, 1, 0};
                      }));
  shapes.emplace_back("all-singleton leaves",
                      shaped_net(96, 5, [&](std::size_t i) {
                        return DomainPath({u16(i % 7), u16(i)});
                      }));
  shapes.emplace_back("ragged depths", shaped_net(120, 6, [&](std::size_t i) {
                        if (i % 3 == 0) return DomainPath{};
                        if (i % 3 == 1) return DomainPath({u16(i % 4)});
                        return DomainPath({u16(i % 4), u16(i % 2), 0});
                      }));
  PopulationSpec spec;
  spec.node_count = 400;
  spec.hierarchy.levels = 4;
  spec.hierarchy.fanout = 5;
  Rng rng(7);
  shapes.emplace_back("random zipf", make_population(spec, rng));
  return shapes;
}

TEST(EdgeCases, CanFamiliesRouteRouteIntoAndProbeAgree) {
  // route(), route_into() (reusing one Route), probe() and the faulty
  // route_into on an empty failure set walk the same path for CAN and
  // Can-Can.
  for (const auto& [shape, net] : can_shapes()) {
    const CanNetwork can = build_can(net);
    const CanRouter can_router(net, can.tree, can.links);
    const CanCanNetwork cancan(net);
    const CanCanRouter cancan_router(cancan);
    const FailureSet none(net.size());
    DropRoller no_drops(0.0, Rng(1));
    FaultScratch scratch;
    Route into;
    Route faulty_path;
    Rng rng(11);
    for (int t = 0; t < 200; ++t) {
      const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
      const NodeId key = net.space().wrap(rng());

      const Route r = can_router.route(from, key);
      EXPECT_TRUE(r.ok) << shape;
      EXPECT_EQ(r.terminal(), can.tree.owner_of(key)) << shape;
      can_router.route_into(from, key, into);
      EXPECT_EQ(into.path, r.path) << shape;
      EXPECT_EQ(into.ok, r.ok) << shape;
      EXPECT_EQ(can_router.probe(from, key),
                (RouteProbe{r.terminal(), r.hops(), r.ok}))
          << shape;
      const ResilientProbe rp = can_router.route_into(
          from, key, none, no_drops, scratch, faulty_path);
      EXPECT_EQ(faulty_path.path, r.path) << shape;
      EXPECT_EQ(rp.to_probe(), can_router.probe(from, key)) << shape;

      const Route c = cancan_router.route(from, key);
      if (c.ok) {
        EXPECT_EQ(c.terminal(), cancan.responsible(key)) << shape;
      }
      cancan_router.route_into(from, key, into);
      EXPECT_EQ(into.path, c.path) << shape;
      EXPECT_EQ(into.ok, c.ok) << shape;
      EXPECT_EQ(cancan_router.probe(from, key),
                (RouteProbe{c.terminal(), c.hops(), c.ok}))
          << shape;
      const ResilientProbe cp = cancan_router.route_into(
          from, key, none, no_drops, scratch, faulty_path);
      EXPECT_EQ(faulty_path.path, c.path) << shape;
      EXPECT_EQ(cp.to_probe(), cancan_router.probe(from, key)) << shape;
    }
  }
}

TEST(EdgeCases, CanStepperCandidateZeroWalksTheRoute) {
  // Always taking candidate 0 reproduces CanRouter's path hop for hop.
  for (const auto& [shape, net] : can_shapes()) {
    const CanNetwork can = build_can(net);
    const CanRouter router(net, can.tree, can.links);
    Rng rng(12);
    std::array<NodeIndex, 3> cand{};
    for (int t = 0; t < 100; ++t) {
      const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
      const NodeId key = net.space().wrap(rng());
      std::vector<NodeIndex> walked = {from};
      for (StepResult s = router.step(from, key, cand); !s.done;
           s = router.step(walked.back(), key, cand)) {
        ASSERT_GT(s.count, 0) << shape;
        walked.push_back(cand[0]);
      }
      EXPECT_EQ(walked, router.route(from, key).path) << shape;
    }
  }
}

TEST(EdgeCases, GroupFamiliesPathsAgree) {
  // route(), route_into() (reusing one Route), probe(), probe_batch(), the
  // faulty route_into on an empty failure set and a walk that always takes
  // the registry stepper's candidate 0 agree for both group families.
  for (const auto& [shape, net] : can_shapes()) {
    const GroupedOverlay groups(net, ProximityConfig{}.target_group_size);
    for (const char* family : {"chord_prox", "crescendo_prox"}) {
      const LinkTable links = registry::build_family(net, family, 13);
      const GroupRouter router(net, groups, links);
      const Stepper step = registry::family(family).make_stepper(net, links);
      const FailureSet none(net.size());
      DropRoller no_drops(0.0, Rng(1));
      FaultScratch scratch;
      Route into;
      Route faulty_path;
      std::vector<Query> queries;
      std::array<NodeIndex, 3> cand{};
      Rng rng(14);
      for (int t = 0; t < 200; ++t) {
        const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
        const NodeId key = net.space().wrap(rng());
        queries.push_back({from, key});

        const Route r = router.route(from, key);
        EXPECT_TRUE(r.ok) << shape << " " << family;
        EXPECT_EQ(r.terminal(), groups.responsible(key))
            << shape << " " << family;
        router.route_into(from, key, into);
        EXPECT_EQ(into.path, r.path) << shape << " " << family;
        EXPECT_EQ(into.ok, r.ok) << shape << " " << family;
        const RouteProbe probe = router.probe(from, key);
        EXPECT_EQ(probe, (RouteProbe{r.terminal(), r.hops(), r.ok}))
            << shape << " " << family;
        const ResilientProbe rp = router.route_into(
            from, key, none, no_drops, scratch, faulty_path);
        EXPECT_EQ(faulty_path.path, r.path) << shape << " " << family;
        EXPECT_EQ(rp.to_probe(), probe) << shape << " " << family;

        std::vector<NodeIndex> walked = {from};
        std::uint64_t state = 0;
        StepResult s = step(from, key, state, cand);
        for (; !s.done && walked.size() <= r.path.size();
             s = step(walked.back(), key, state, cand)) {
          ASSERT_GT(s.count, 0) << shape << " " << family;
          walked.push_back(cand[0]);
        }
        EXPECT_EQ(walked, r.path) << shape << " " << family;
        EXPECT_EQ(s.ok, r.ok) << shape << " " << family;
      }
      std::vector<RouteProbe> batch(queries.size());
      router.probe_batch(queries, batch);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batch[i], router.probe(queries[i].from, queries[i].key))
            << shape << " " << family << " " << i;
      }
    }
  }
}

TEST(EdgeCases, EveryRegistryStepperAcceptsAnEmptySpan) {
  // An empty candidate span asks for nothing: no family may write (or
  // read) past it, and every one reports zero candidates.
  PopulationSpec spec;
  spec.node_count = 300;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 4;
  Rng rng(1106);
  const auto net = make_population(spec, rng);
  for (const auto& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, 5);
    const Stepper step = entry.make_stepper(net, links);
    Rng qrng(13);
    for (int t = 0; t < 50; ++t) {
      const auto at = static_cast<NodeIndex>(qrng.uniform(net.size()));
      const NodeId key = net.space().wrap(qrng());
      std::uint64_t state = 0;
      EXPECT_EQ(step(at, key, state, std::span<NodeIndex>{}).count, 0)
          << entry.name;
    }
  }
}

TEST(EdgeCases, CrescendoDeterministicAcrossRebuilds) {
  Rng rng(1106);
  PopulationSpec spec;
  spec.node_count = 150;
  spec.hierarchy.levels = 3;
  const auto net = make_population(spec, rng);
  const auto a = build_crescendo(net);
  const auto b = build_crescendo(net);
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const auto x = a.neighbors(m);
    const auto y = b.neighbors(m);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()));
  }
}

}  // namespace
}  // namespace canon
