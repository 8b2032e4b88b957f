// The greedy kernel's searches against the scans they replace: the ring
// metric's row pick (a predecessor search over an ID-ascending row) against
// detail::argmin_rank, plain and with a veto; whole greedy and lookahead
// routes of the ring families against a scan of every neighbor; and the
// live XOR takeover descent against a scan of every member.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "overlay/family_registry.h"
#include "overlay/fault_plan.h"
#include "overlay/greedy_kernel.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

namespace canon {
namespace {

/// A one-node network in a `bits`-bit space: the ring metric's row pick
/// reads only the space's mask.
OverlayNetwork one_node_net(int bits) {
  std::vector<OverlayNode> nodes = {{0, {}, -1}};
  return OverlayNetwork(IdSpace(bits), std::move(nodes));
}

/// `size` distinct ids of `space`, ascending. A small space may be filled
/// completely (sample_unique_ids stops at half of it).
std::vector<NodeId> sorted_row(std::size_t size, const IdSpace& space,
                               Rng& rng) {
  std::vector<NodeId> ids;
  if (space.bits() < 8) {
    for (NodeId id = 0; id <= space.mask(); ++id) ids.push_back(id);
    for (std::size_t i = 0; i < size; ++i) {  // partial Fisher-Yates
      std::swap(ids[i], ids[i + rng.uniform(ids.size() - i)]);
    }
    ids.resize(size);
  } else {
    ids = sample_unique_ids(size, space, rng);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Index, rank and, under a veto, the smallest rank `keep` was asked of:
/// greedy_walk's fallback tally reads that rank.
struct Outcome {
  std::size_t index;
  std::uint64_t rank;
  std::uint64_t best_asked;
};

template <typename PickFn>
Outcome run_pick(std::uint64_t remaining, const std::vector<bool>& vetoed,
                 PickFn&& pick) {
  std::uint64_t best_asked = remaining;
  const detail::Pick p = pick([&](std::size_t j, std::uint64_t r) {
    best_asked = std::min(best_asked, r);
    return !vetoed[j];
  });
  return {p.index, p.rank, best_asked};
}

void expect_search_matches_scan(const detail::RingMetric& metric,
                                const std::vector<NodeId>& ids, NodeId key,
                                std::uint64_t remaining,
                                const std::vector<bool>& vetoed) {
  SCOPED_TRACE("row size " + std::to_string(ids.size()) + " key " +
               std::to_string(key) + " remaining " +
               std::to_string(remaining));
  const auto scan = [&](auto keep) {
    return detail::argmin_rank(
        metric, key, remaining, ids.size(),
        [&](std::size_t j) { return ids[j]; }, keep);
  };
  const auto search = [&](auto keep) {
    return metric.best_in_row(key, remaining, ids, keep);
  };
  const detail::Pick want = scan(detail::KeepAll{});
  const detail::Pick got = search(detail::KeepAll{});
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.rank, want.rank);

  const Outcome want_veto = run_pick(remaining, vetoed, scan);
  const Outcome got_veto = run_pick(remaining, vetoed, search);
  EXPECT_EQ(got_veto.index, want_veto.index);
  EXPECT_EQ(got_veto.rank, want_veto.rank);
  EXPECT_EQ(got_veto.best_asked, want_veto.best_asked);
}

TEST(RingRowPick, MatchesTheScanOnRandomSortedRows) {
  Rng rng(1901);
  for (const int bits : {1, 4, 32, 64}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    const OverlayNetwork net = one_node_net(bits);
    const detail::RingMetric metric(net);
    const IdSpace& space = net.space();
    const std::uint64_t mask = space.mask();
    const std::size_t max_row =
        bits >= 7 ? 64 : static_cast<std::size_t>(1) << bits;
    for (int trial = 0; trial < 600; ++trial) {
      // Empty and one-entry rows come up often; the rest are random sizes.
      const std::size_t size =
          trial % 5 == 0 ? static_cast<std::size_t>(trial % 10 == 0 ? 0 : 1)
                         : 1 + rng.uniform(max_row);
      const std::vector<NodeId> ids = sorted_row(size, space, rng);

      std::vector<NodeId> keys = {rng(), rng() & mask};  // unmasked, masked
      if (!ids.empty()) {
        const NodeId entry = ids[rng.uniform(ids.size())];
        keys.push_back(entry);                        // equal to an entry
        keys.push_back(entry | (rng() & ~mask));      // same, unmasked
        if (ids.front() > 0) keys.push_back(ids.front() - 1);  // wraps
      }
      for (const NodeId key : keys) {
        std::vector<std::uint64_t> remainings = {mask, 0, rng() & mask};
        if (!ids.empty()) {
          std::uint64_t lowest = mask;
          for (const NodeId id : ids) {
            lowest = std::min(lowest, metric.rank(id, key));
          }
          remainings.push_back(lowest);  // no rank lies below it
          remainings.push_back(metric.rank(ids[rng.uniform(ids.size())], key));
        }
        for (const std::uint64_t remaining : remainings) {
          std::vector<bool> some(ids.size());
          for (std::size_t j = 0; j < ids.size(); ++j) {
            some[j] = rng.uniform(2) == 0;
          }
          std::vector<bool> all_but_one(ids.size(), true);
          if (!ids.empty()) all_but_one[rng.uniform(ids.size())] = false;
          for (const auto& vetoed :
               {std::vector<bool>(ids.size(), false), some, all_but_one,
                std::vector<bool>(ids.size(), true)}) {
            expect_search_matches_scan(metric, ids, key, remaining, vetoed);
          }
        }
      }
    }
  }
}

/// Clockwise distance left from `node` to `key`.
std::uint64_t ring_left(const OverlayNetwork& net, NodeIndex node,
                        NodeId key) {
  return (key - net.id(node)) & net.space().mask();
}

/// The first neighbor of `node` closest below `bound` in ring_left, by a
/// scan of the row through net.id(), or `node` when none is.
NodeIndex scan_row(const OverlayNetwork& net, const LinkTable& links,
                   NodeIndex node, NodeId key, std::uint64_t bound) {
  NodeIndex best = node;
  for (const NodeIndex nb : links.neighbors(node)) {
    const std::uint64_t r = ring_left(net, nb, key);
    if (r < bound) {
      best = nb;
      bound = r;
    }
  }
  return best;
}

/// Plain greedy ring route by full row scans.
std::vector<NodeIndex> scan_route(const OverlayNetwork& net,
                                  const LinkTable& links, NodeIndex from,
                                  NodeId key) {
  std::vector<NodeIndex> path = {from};
  for (int step = 0; step < hop_guard(net); ++step) {
    const NodeIndex at = path.back();
    const NodeIndex next =
        scan_row(net, links, at, key, ring_left(net, at, key));
    if (next == at) break;
    path.push_back(next);
  }
  return path;
}

/// Greedy-with-lookahead ring route by full row scans: every progressing
/// neighbor v in row order, then v's best second step, committing to the
/// first plan of the smallest final distance.
std::vector<NodeIndex> scan_lookahead_route(const OverlayNetwork& net,
                                            const LinkTable& links,
                                            NodeIndex from, NodeId key) {
  std::vector<NodeIndex> path = {from};
  for (int step = 0; step < hop_guard(net); ++step) {
    const NodeIndex at = path.back();
    const std::uint64_t remaining = ring_left(net, at, key);
    NodeIndex best_v = at;
    NodeIndex best_w = at;
    std::uint64_t best_final = remaining;
    for (const NodeIndex v : links.neighbors(at)) {
      const std::uint64_t after1 = ring_left(net, v, key);
      if (after1 >= remaining) continue;
      if (after1 < best_final) {
        best_final = after1;
        best_v = best_w = v;
      }
      const NodeIndex w = scan_row(net, links, v, key, best_final);
      if (w != v) {
        best_final = ring_left(net, w, key);
        best_v = v;
        best_w = w;
      }
    }
    if (best_v == at) break;
    path.push_back(best_v);
    if (best_w != best_v) path.push_back(best_w);
  }
  return path;
}

TEST(RingRoutes, EveryRingFamilyMatchesTheScanHopForHop) {
  PopulationSpec spec;
  spec.node_count = 600;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 3;
  Rng rng(1904);
  const OverlayNetwork net = make_population(spec, rng);
  auto queries = uniform_workload(net, 400, Rng(1905));
  // Every fourth key carries bits above the 32-bit space, as rng() draws.
  for (std::size_t i = 0; i < queries.size(); i += 4) {
    queries[i].key |= rng() & ~net.space().mask();
  }
  for (const char* family :
       {"chord", "symphony", "nondet_chord", "crescendo", "clique_crescendo",
        "cacophony", "nondet_crescendo"}) {
    SCOPED_TRACE(family);
    const LinkTable links = registry::build_family(net, family, 1906);
    const RingRouter router(net, links);
    std::vector<RouteProbe> batch(queries.size());
    router.probe_batch(queries, batch);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      const std::vector<NodeIndex> want = scan_route(net, links, q.from, q.key);
      const Route got = router.route(q.from, q.key);
      ASSERT_EQ(got.path, want) << "query " << i;
      EXPECT_EQ(want.back(), net.responsible(q.key & net.space().mask()));
      EXPECT_EQ(batch[i].terminal, want.back());
      EXPECT_EQ(batch[i].hops, static_cast<int>(want.size()) - 1);
      EXPECT_EQ(router.route_lookahead(q.from, q.key).path,
                scan_lookahead_route(net, links, q.from, q.key))
          << "query " << i;
    }
  }
}

/// The live member of `members` XOR-closest to `key`, by scanning them all.
NodeIndex brute_live_xor_closest(const OverlayNetwork& net,
                                 std::span<const NodeIndex> members,
                                 NodeId key, const FailureSet& dead) {
  const std::uint64_t mask = net.space().mask();
  NodeIndex best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (const NodeIndex m : members) {
    const std::uint64_t d = (net.id(m) ^ key) & mask;
    if (!dead.dead(m) && (best == RingView::kNone || d < best_d)) {
      best = m;
      best_d = d;
    }
  }
  return best;
}

TEST(LiveXorClosest, MatchesTheScanOfEveryMember) {
  Rng rng(1902);
  for (const int bits : {4, 8, 32}) {
    for (const std::size_t n : {1u, 2u, 8u, 13u, 200u}) {
      if (static_cast<double>(n) > IdSpace(bits).size() / 2) continue;
      SCOPED_TRACE("bits " + std::to_string(bits) + " n " +
                   std::to_string(n));
      PopulationSpec spec;
      spec.node_count = n;
      spec.id_bits = bits;
      spec.hierarchy.levels = 3;
      spec.hierarchy.fanout = 3;
      const OverlayNetwork net = make_population(spec, rng);
      std::vector<std::span<const NodeIndex>> lists = {net.ring().members()};
      for (int d = 0; d < net.domains().domain_count(); ++d) {
        const auto& members = net.domains().domain(d).members;
        lists.emplace_back(members.data(), members.size());
      }
      for (const double dead_share : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        for (int round = 0; round < 4; ++round) {
          FailureSet dead(n);
          for (NodeIndex m = 0; m < n; ++m) {
            if (rng.uniform_double() < dead_share) dead.kill(m);
          }
          // Share 1.0 keeps one survivor: all dead but one.
          if (dead_share == 1.0) dead.revive(rng.uniform(n));
          for (const auto members : lists) {
            const bool any_live = std::any_of(
                members.begin(), members.end(),
                [&](NodeIndex m) { return !dead.dead(m); });
            for (int q = 0; q < 16; ++q) {
              const NodeId key =
                  q % 4 == 0 ? net.id(members[rng.uniform(members.size())])
                             : rng();
              if (!any_live) {
                EXPECT_THROW(
                    detail::live_xor_closest(net, members, key, dead),
                    std::logic_error);
                continue;
              }
              EXPECT_EQ(detail::live_xor_closest(net, members, key, dead),
                        brute_live_xor_closest(net, members, key, dead))
                  << "key " << key;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace canon
