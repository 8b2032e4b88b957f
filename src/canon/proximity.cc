#include "canon/proximity.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.h"
#include "common/prefetch.h"
#include "dht/chord.h"
#include "overlay/batch_probe.h"
#include "overlay/greedy_kernel.h"

namespace canon {

GroupedOverlay::GroupedOverlay(const OverlayNetwork& net,
                               int target_group_size)
    : net_(&net) {
  if (target_group_size < 1) {
    throw std::invalid_argument("GroupedOverlay: bad target group size");
  }
  const int bits = net.space().bits();
  const std::size_t n = net.size();
  if (n == 0) throw std::invalid_argument("GroupedOverlay: empty network");
  prefix_bits_ = std::min(
      bits, ceil_log2(std::max<std::uint64_t>(
                1, n / static_cast<std::size_t>(target_group_size))));
  shift_ = bits - prefix_bits_;

  // Nodes are ID-sorted, so groups are contiguous runs of equal gid.
  group_index_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId g = net.id(i) >> shift_;
    if (groups_.empty() || groups_.back().gid != g) {
      groups_.push_back(Group{g, {}});
    }
    groups_.back().members.push_back(i);
    group_index_[i] = static_cast<int>(groups_.size()) - 1;
  }
}

NodeId GroupedOverlay::gid_of_node(std::uint32_t node) const {
  return net_->id(node) >> shift_;
}

int GroupedOverlay::group_index_of(std::uint32_t node) const {
  return group_index_[node];
}

int GroupedOverlay::group_successor(NodeId g) const {
  const auto it = std::lower_bound(
      groups_.begin(), groups_.end(), g,
      [](const Group& grp, NodeId key) { return grp.gid < key; });
  if (it == groups_.end()) return 0;
  return static_cast<int>(it - groups_.begin());
}

int GroupedOverlay::responsible_group(NodeId key) const {
  const NodeId g = gid_of_key(key);
  const int succ = group_successor(g);
  if (groups_[static_cast<std::size_t>(succ)].gid == g) return succ;
  return (succ + static_cast<int>(groups_.size()) - 1) %
         static_cast<int>(groups_.size());
}

std::uint32_t GroupedOverlay::responsible(NodeId key) const {
  const auto& members =
      groups_[static_cast<std::size_t>(responsible_group(key))].members;
  const RingView view(net_->space(), net_->ids(),
                      {members.data(), members.size()});
  return view.predecessor_or_self(key);
}

std::uint64_t GroupedOverlay::group_distance(NodeId from_gid,
                                             NodeId to_gid) const {
  if (prefix_bits_ == 0) return 0;
  const std::uint64_t mask = (prefix_bits_ == 64)
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << prefix_bits_) - 1;
  return (to_gid - from_gid) & mask;
}

namespace {

/// The latency-nearest of up to `samples` randomly sampled group members.
std::uint32_t pick_nearest(const std::vector<std::uint32_t>& members,
                           std::uint32_t from, const HopCost& latency,
                           int samples, Rng& rng) {
  std::uint32_t best = RingView::kNone;
  double best_ms = 0;
  const int budget = std::min<int>(samples, static_cast<int>(members.size()));
  for (int i = 0; i < budget; ++i) {
    const std::uint32_t cand =
        budget == static_cast<int>(members.size())
            ? members[static_cast<std::size_t>(i)]
            : members[rng.uniform(members.size())];
    if (cand == from) continue;
    const double ms = latency(from, cand);
    if (best == RingView::kNone || ms < best_ms) {
      best = cand;
      best_ms = ms;
    }
  }
  return best;
}

/// Adds node `m`'s group-level Chord links: for each 0 <= k < T, the first
/// non-empty group at group distance >= 2^k, capped (strictly) at
/// `group_limit` group-distance (condition (b) at group granularity; pass
/// kNoLimit for flat Chord Prox). Endpoints are latency-sampled.
void add_group_links(const GroupedOverlay& groups, std::uint32_t m,
                     std::uint64_t group_limit, const HopCost& latency,
                     const ProximityConfig& cfg, Rng& rng, LinkTable& out) {
  const int T = groups.prefix_bits();
  const NodeId g = groups.gid_of_node(m);
  for (int k = 0; k < T; ++k) {
    const std::uint64_t dist = std::uint64_t{1} << k;
    if (dist >= group_limit) break;
    const std::uint64_t mask = (std::uint64_t{1} << T) - 1;
    const int gi = groups.group_successor((g + dist) & mask);
    const auto& target = groups.groups()[static_cast<std::size_t>(gi)];
    const std::uint64_t covered = groups.group_distance(g, target.gid);
    if (covered == 0 || covered >= group_limit) continue;
    const std::uint32_t v =
        pick_nearest(target.members, m, latency, cfg.sample_size, rng);
    if (v != RingView::kNone) out.add(m, v);
  }
}

void add_clique_links(const GroupedOverlay& groups, std::uint32_t m,
                      LinkTable& out) {
  const auto& mine =
      groups.groups()[static_cast<std::size_t>(groups.group_index_of(m))];
  for (const std::uint32_t v : mine.members) out.add(m, v);
}

}  // namespace

LinkTable build_chord_prox(const OverlayNetwork& net,
                           const GroupedOverlay& groups,
                           const HopCost& latency, const ProximityConfig& cfg,
                           Rng& rng) {
  telemetry::ScopedTimer timer("build.chord_prox_ms");
  LinkTable out(net.size());
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  parallel_for(net.size(), kNodeGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto m = static_cast<std::uint32_t>(i);
      Rng node_rng = base.fork(m);
      add_clique_links(groups, m, out);
      add_group_links(groups, m, kNoLimit, latency, cfg, node_rng, out);
    }
  });
  out.finalize(net.ids());
  return out;
}

LinkTable build_crescendo_prox(const OverlayNetwork& net,
                               const GroupedOverlay& groups,
                               const HopCost& latency,
                               const ProximityConfig& cfg, Rng& rng) {
  telemetry::ScopedTimer timer("build.crescendo_prox_ms");
  LinkTable out(net.size());
  const DomainTree& dom = net.domains();
  const auto add_node_links = [&](std::uint32_t m, Rng& node_rng) {
    add_clique_links(groups, m, out);
    const auto& chain = dom.domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    if (leaf == 0) {
      // Flat population: the whole structure is group-based.
      add_group_links(groups, m, kNoLimit, latency, cfg, node_rng, out);
      return;
    }
    // Normal Crescendo inside the leaf and at every merge except the root.
    add_chord_fingers(net,
                      net.domain_ring(chain[static_cast<std::size_t>(leaf)]),
                      m, kNoLimit, out);
    for (int level = leaf - 1; level >= 1; --level) {
      const std::uint64_t limit =
          net.domain_ring(chain[static_cast<std::size_t>(level + 1)])
              .successor_distance(net.id(m));
      add_chord_fingers(
          net, net.domain_ring(chain[static_cast<std::size_t>(level)]), m,
          limit, out);
    }
    // Top-level merge: group-based, with condition (b) at group
    // granularity — only groups strictly closer than the group of the
    // child-ring successor.
    const RingView child = net.domain_ring(chain[1]);
    const std::uint32_t succ = child.first_at_distance(net.id(m), 1);
    std::uint64_t group_limit = kNoLimit;
    if (succ != RingView::kNone && succ != m) {
      group_limit = groups.group_distance(groups.gid_of_node(m),
                                          groups.gid_of_node(succ));
      if (group_limit == 0) return;  // child successor shares the group
    }
    add_group_links(groups, m, group_limit, latency, cfg, node_rng, out);
  };
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  parallel_for(net.size(), kNodeGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t m = begin; m < end; ++m) {
      Rng node_rng = base.fork(m);
      add_node_links(static_cast<std::uint32_t>(m), node_rng);
    }
  });
  out.finalize(net.ids());
  return out;
}

namespace {

/// A hop's progress from the current node in the group walk's order: the
/// group distance it covers, then the ID distance it covers, both the more
/// the better. So `a < b` means a ranks before b, and a hop is progress iff
/// it ranks before staying put, the rank {0, 0}.
struct GroupRank {
  std::uint64_t groups = 0;
  std::uint64_t ids = 0;

  friend bool operator<(const GroupRank& a, const GroupRank& b) {
    return a.groups != b.groups ? a.groups > b.groups : a.ids > b.ids;
  }
};

/// The greedy order of the group walk (§3.6 phase 1) at one node outside
/// the target group. The ID term is progress from the current node, not the
/// distance left to the key: a hop into the target group may land past the
/// key, and it still ranks by how far it goes.
struct GroupOrder {
  const OverlayNetwork& net;
  const GroupedOverlay& groups;
  std::uint64_t mask;  // of the ID space
  NodeId cur_id;
  NodeId cur_gid;
  std::uint64_t remaining_groups;
  std::uint64_t remaining_ids;

  GroupOrder(const OverlayNetwork& n, const GroupedOverlay& g, NodeId id,
             NodeId target_gid, NodeId key)
      : net(n),
        groups(g),
        mask(n.space().mask()),
        cur_id(id),
        cur_gid(g.gid_of_key(id)),
        remaining_groups(g.group_distance(cur_gid, target_gid)),
        remaining_ids((key - id) & mask) {}

  /// The rank of a hop to the node with ID `id`: staying put when the hop
  /// overshoots the target group, or stays in the current group and
  /// overshoots the key.
  GroupRank rank(NodeId id) const {
    const std::uint64_t gcov =
        groups.group_distance(cur_gid, groups.gid_of_key(id));
    if (gcov > remaining_groups) return {};
    const std::uint64_t icov = (id - cur_id) & mask;
    if (gcov == 0 && icov > remaining_ids) return {};
    return {gcov, icov};
  }

  /// Calls visit(j, rank) for every candidate j of one CSR row, reading its
  /// id from the row's inline ids when the table captured them (`ids`
  /// non-null), else from the overlay.
  template <typename Visit>
  void scan(std::span<const NodeIndex> row, const NodeId* ids,
            Visit&& visit) const {
    for (std::size_t j = 0; j < row.size(); ++j) {
      visit(j, rank(ids ? ids[j] : net.id(row[j])));
    }
  }

  /// Index of the strict, first-best progress in the row, or
  /// detail::kNoWinner. `keep(j)` is asked only of a candidate that would
  /// become the new best, and may veto it.
  template <typename Keep>
  std::size_t argbest(std::span<const NodeIndex> row, const NodeId* ids,
                      Keep&& keep) const {
    std::size_t best = detail::kNoWinner;
    GroupRank best_rank;
    scan(row, ids, [&](std::size_t j, const GroupRank& r) {
      if (r < best_rank && keep(j)) {
        best = j;
        best_rank = r;
      }
    });
    return best;
  }
};

/// `node`, or when it is dead its closest live predecessor on the global
/// ring (node indices are ring positions).
NodeIndex live_or_predecessor(NodeIndex node, std::size_t n,
                              const FailureSet& dead) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto candidate = static_cast<NodeIndex>((node + n - i) % n);
    if (!dead.dead(candidate)) return candidate;
  }
  throw std::logic_error("live_responsible: everyone is dead");
}

/// The one group walk behind GroupRouter's plain (NoFaults) and faulty
/// (Faults) overloads: greedy in GroupOrder into the target's group, then
/// one hop over that group's clique to the target — the key's responsible
/// node, or under Faults its live stand-in. Under Faults it vetoes dead and
/// banned candidates and retries dropped forwards; the clique hop has a
/// single receiver, so it retransmits instead of banning it.
template <typename FaultPolicy, typename Recorder>
ResilientProbe group_walk(const OverlayNetwork& net,
                          const GroupedOverlay& groups, const LinkTable& links,
                          int max_hops, NodeIndex from, NodeId key,
                          const FaultPolicy& faults, Recorder&& record) {
  constexpr bool kFaults = FaultPolicy::kActive;
  NodeIndex target = groups.responsible(key);
  if constexpr (kFaults) {
    target = live_or_predecessor(target, net.size(), faults.dead);
  }
  const NodeId target_gid = groups.gid_of_node(target);
  ResilientProbe p{from, 0, false, 0, 0};
  for (int step = 0; step < max_hops; ++step) {
    const NodeIndex current = p.terminal;
    if (current == target) {
      p.ok = true;
      return p;
    }
    const NodeId cur_id = net.id(current);
    const bool clique_hop = groups.gid_of_key(cur_id) == target_gid;
    if (clique_hop && !links.has_link(current, target)) return p;  // stuck
    const GroupOrder order(net, groups, cur_id, target_gid, key);
    const auto row = links.neighbors(current);
    const NodeId* ids = detail::row_ids(links, current);
    int attempts = 0;
    if constexpr (kFaults) {
      faults.scratch.banned.clear();
      attempts = kRetryBudget;
    }
    NodeIndex next = target;
    for (;;) {  // per-hop retry ladder
      if (!clique_hop) {
        const std::size_t j = order.argbest(row, ids, [&](std::size_t c) {
          if constexpr (kFaults) {
            return !faults.dead.dead(row[c]) && !faults.banned_node(row[c]);
          }
          return true;
        });
        if (j == detail::kNoWinner) return p;  // stuck
        next = row[j];
      }
      if constexpr (kFaults) {
        if (faults.drops.drop()) {
          ++p.retries;
          if (--attempts <= 0) return p;  // lost
          if (!clique_hop) faults.scratch.banned.push_back(next);
          continue;
        }
      }
      break;
    }
    p.terminal = next;
    ++p.hops;
    record(next);
    if (clique_hop) {
      p.ok = true;
      return p;
    }
  }
  return p;  // hop guard exceeded: structurally broken table
}

/// One lane of detail::interleaved_probe_batch over the group walk, shaped
/// like detail::GreedyLane: the walk's target is found once per query, and
/// a hop scans only the prefetched row's inline ids.
struct GroupLane {
  const OverlayNetwork& net;
  const GroupedOverlay& groups;
  const LinkTable& links;
  int max_hops;

  struct Lane {
    std::size_t query_index;
    NodeIndex current;
    NodeId cur_id;  // == net.id(current) once need_id clears
    NodeId key;
    NodeIndex target;
    NodeId target_gid;
    int hops;
    LinkOffset row_begin;
    LinkOffset row_end;
    bool need_id;
  };

  void begin(Lane& l, const Query& q, std::size_t query_index) const {
    const NodeIndex target = groups.responsible(q.key);
    l = {query_index, q.from, 0, q.key, target, groups.gid_of_node(target),
         0, 0, 0, true};
    prefetch_ro(net.ids().data() + q.from);
    links.prefetch_row_bounds(q.from);
  }

  void fetch(Lane& l) const {
    if (l.need_id) {
      l.cur_id = net.id(l.current);
      l.need_id = false;
    }
    const auto [b, e] = links.row_bounds(l.current);
    l.row_begin = b;
    l.row_end = e;
    links.prefetch_row_payload(b, e);
  }

  bool advance(Lane& l, RouteProbe& out) const {
    if (l.hops >= max_hops) {  // group_walk's hop-guard exhaustion
      out = {l.current, l.hops, false};
      return true;
    }
    if (l.current == l.target) {
      out = {l.current, l.hops, true};
      return true;
    }
    if (groups.gid_of_key(l.cur_id) == l.target_gid) {  // the clique hop
      out = links.has_link(l.current, l.target)
                ? RouteProbe{l.target, l.hops + 1, true}
                : RouteProbe{l.current, l.hops, false};
      return true;
    }
    const std::span<const NodeIndex> row(links.targets_data() + l.row_begin,
                                         l.row_end - l.row_begin);
    const NodeId* ids = links.target_ids_data() + l.row_begin;
    const std::size_t j =
        GroupOrder(net, groups, l.cur_id, l.target_gid, l.key)
            .argbest(row, ids, [](std::size_t) { return true; });
    if (j == detail::kNoWinner) {
      out = {l.current, l.hops, false};
      return true;
    }
    l.current = row[j];
    l.cur_id = ids[j];
    ++l.hops;
    links.prefetch_row_bounds(l.current);
    return false;
  }
};

}  // namespace

GroupRouter::GroupRouter(const OverlayNetwork& net,
                         const GroupedOverlay& groups, const LinkTable& links)
    : net_(&net),
      groups_(&groups),
      links_(&links),
      max_hops_(hop_guard(net)) {
  require_routable(net, links, "GroupRouter");
}

Route GroupRouter::route(std::uint32_t from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  return r;
}

void GroupRouter::route_into(std::uint32_t from, NodeId key,
                             Route& out) const {
  out.path.assign(1, from);
  out.ok = group_walk(*net_, *groups_, *links_, max_hops_, from, key,
                      detail::NoFaults{}, detail::PathRecorder{&out.path})
               .ok;
}

RouteProbe GroupRouter::probe(std::uint32_t from, NodeId key) const {
  return group_walk(*net_, *groups_, *links_, max_hops_, from, key,
                    detail::NoFaults{}, detail::NullRecorder{})
      .to_probe();
}

ResilientProbe GroupRouter::route_into(std::uint32_t from, NodeId key,
                                       const FailureSet& dead,
                                       DropRoller& drops,
                                       FaultScratch& scratch,
                                       Route& out) const {
  out.path.assign(1, from);
  const ResilientProbe p = detail::with_faults(
      from, {dead, drops, scratch}, "GroupRouter", [&](const auto& faults) {
        return group_walk(*net_, *groups_, *links_, max_hops_, from, key,
                          faults, detail::PathRecorder{&out.path});
      });
  out.ok = p.ok;
  return p;
}

ResilientProbe GroupRouter::probe(std::uint32_t from, NodeId key,
                                  const FailureSet& dead, DropRoller& drops,
                                  FaultScratch& scratch) const {
  return detail::with_faults(
      from, {dead, drops, scratch}, "GroupRouter", [&](const auto& faults) {
        return group_walk(*net_, *groups_, *links_, max_hops_, from, key,
                          faults, detail::NullRecorder{});
      });
}

void GroupRouter::probe_batch(std::span<const Query> queries,
                              std::span<RouteProbe> out) const {
  detail::probe_batch_with(queries, out, *this, *links_,
                           GroupLane{*net_, *groups_, *links_, max_hops_});
}

StepResult GroupRouter::step(std::uint32_t at, NodeId key,
                             std::span<NodeIndex> out) const {
  const NodeIndex target = groups_->responsible(key);
  if (at == target) return {0, true, true};
  if (out.empty()) return {0, false, false};  // no candidates requested
  const NodeId cur_id = net_->id(at);
  const NodeId target_gid = groups_->gid_of_node(target);
  if (groups_->gid_of_key(cur_id) == target_gid) {  // the clique hop
    if (!links_->has_link(at, target)) return {0, true, false};  // stuck
    out[0] = target;
    return {1, false, false};
  }
  const GroupOrder order(*net_, *groups_, cur_id, target_gid, key);
  const auto row = links_->neighbors(at);
  detail::TopK<GroupRank> top(out.size());
  order.scan(row, detail::row_ids(*links_, at),
             [&](std::size_t j, const GroupRank& r) {
               if (r < GroupRank{}) top.push(r, row[j]);
             });
  if (top.count == 0) return {0, true, false};  // stuck
  return {top.emit(out), false, false};
}

}  // namespace canon
