// The one greedy decision behind every ring and XOR family (Section 2.2):
// "plain greedy routing on the relevant metric over the union of a node's
// links".
//
// A metric policy ranks a node by its distance to the key: a neighbor's
// rank is the distance left after hopping to it, and a neighbor is
// progress iff its rank is strictly below the current node's own rank.
// Each policy also names the terminal oracle (structural and among live
// nodes); the ring policy alone has a leaf-set fallback.
//
// Every path that routes a ring or XOR family is built from these pieces,
// so one winner rule serves them all:
//
// * best_in_row  — each metric's winner over one CSR row. The ring metric
//                  finds it by a predecessor search: a row's ids ascend,
//                  because the overlay numbers its nodes in ID order and
//                  every row ascends by index, and require_routable
//                  rejects a table built over any other ids. The XOR
//                  metric scans the row with argmin_rank;
// * argmin_rank  — the strict-`<`, first-best scan over a candidate list
//                  (XOR rows, the ring leaf set);
// * greedy_walk  — the whole route. With NoFaults it is the plain
//                  route_into/probe; with Faults it vetoes dead and banned
//                  candidates, retries dropped forwards and falls back to
//                  the leaf set (the routers' faulty overloads);
// * GreedyLane   — one lane of detail::interleaved_probe_batch;
// * the steppers — feed the same rank into detail::TopK (stepper.cc).
//
// The CAN and Can-Can walks (dht/can.cc, canon/cancan.cc) rank by their
// zone-match scan, and the group walk (canon/proximity.cc) by its two-key
// group order, instead of a metric; they share the NoFaults/Faults
// policies, the recorders, detail::TopK, the live XOR takeover
// descent and the faulty entry points' dispatch (with_faults).
//
// Internal header: included by routing.cc, stepper.cc, dht/can.cc,
// canon/cancan.cc, canon/proximity.cc and tests/greedy_kernel_test.cc only.
#ifndef CANON_OVERLAY_GREEDY_KERNEL_H
#define CANON_OVERLAY_GREEDY_KERNEL_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/prefetch.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"

namespace canon::detail {

inline constexpr std::size_t kNoWinner = static_cast<std::size_t>(-1);

/// Winner of one row pick: its index, or kNoWinner with rank == remaining.
struct Pick {
  std::size_t index;
  std::uint64_t rank;
};

struct KeepAll {
  constexpr bool operator()(std::size_t, std::uint64_t) const { return true; }
};

/// First index of the strictly smallest rank below `remaining` among
/// candidates 0..count) whose ids `id_at(j)` yields. `keep(j, rank)` is
/// asked only of a candidate that would become the new best, and may veto
/// it — the resilient walk's dead/banned filter. The XOR metric's row pick
/// and the ring metric's leaf-set pick; a ring row is searched instead
/// (RingMetric::best_in_row).
template <typename Metric, typename IdAt, typename Keep = KeepAll>
Pick argmin_rank(const Metric& metric, NodeId key, std::uint64_t remaining,
                 std::size_t count, IdAt&& id_at, Keep&& keep = {}) {
  Pick best{kNoWinner, remaining};
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t r = metric.rank(id_at(j), key);
    if (r < best.rank && keep(j, r)) best = {j, r};
  }
  return best;
}

/// The live member of `members` XOR-closest to `key`: who takes over a dead
/// terminal in the XOR, CAN and Can-Can families. `members` must ascend by
/// NodeId, as `net.ring().members()` and every domain's member list do.
/// Throws std::logic_error when every member is dead.
///
/// A bitwise descent from the top bit: the range's members share every
/// higher bit, so it splits where the current bit turns to 1, and the walk
/// keeps the half matching the key's bit whenever that half holds a live
/// member. `live` is the range's first live position, so each member's
/// liveness is asked at most once, and a query among few dead members
/// costs one binary search per bit instead of a scan of every member.
inline NodeIndex live_xor_closest(const OverlayNetwork& net,
                                  std::span<const NodeIndex> members,
                                  NodeId key, const FailureSet& dead) {
  const auto first_live = [&](std::size_t from, std::size_t to) {
    while (from < to && dead.dead(members[from])) ++from;
    return from;
  };
  std::size_t lo = 0;
  std::size_t hi = members.size();
  std::size_t live = first_live(lo, hi);
  if (live == hi) {
    throw std::logic_error("live_xor_closest: every member is dead");
  }
  for (int b = net.space().bits() - 1; b >= 0 && hi - lo > 1; --b) {
    const NodeId bit = NodeId{1} << b;
    const std::size_t mid = static_cast<std::size_t>(
        std::partition_point(members.begin() + static_cast<long>(lo),
                             members.begin() + static_cast<long>(hi),
                             [&](NodeIndex m) {
                               return (net.id(m) & bit) == 0;
                             }) -
        members.begin());
    if (key & bit) {  // prefer [mid, hi)
      const std::size_t up = live >= mid ? live : first_live(mid, hi);
      if (up < hi) {
        lo = mid;
        live = up;
      } else {
        hi = mid;
      }
    } else if (live < mid) {  // prefer [lo, mid)
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return members[live];
}

/// Greedy clockwise metric of the seven ring families. A neighbor that
/// overshoots the key lies more than the current distance short of it
/// clockwise, so its rank exceeds the current distance and it never wins:
/// the clockwise distance alone encodes "never overshoot".
struct RingMetric {
  static constexpr bool kHasLeafSet = true;
  const OverlayNetwork* net;
  std::uint64_t mask;

  explicit RingMetric(const OverlayNetwork& n)
      : net(&n), mask(n.space().mask()) {}

  std::uint64_t rank(NodeId id, NodeId key) const {
    return (key - id) & mask;
  }
  NodeIndex terminal(NodeId key) const { return net->responsible(key); }

  /// The pick over one CSR row, whose ids ascend (require_routable): the
  /// candidate of smallest rank below `remaining` that `keep(j, rank)`
  /// accepts — argmin_rank's winner, found by search. The smallest rank
  /// is the row's clockwise predecessor-or-self of the key: the last id at
  /// or below the masked key, or the last entry when every id lies above
  /// it. Ids are unique, so ranks are; from that entry they rise one entry
  /// at a time cyclically downwards, so a veto walks on until a candidate
  /// is kept or stops progressing. As in argmin_rank, the row's best is
  /// asked whenever it progresses (greedy_walk's fallback tally needs it).
  template <typename Keep = KeepAll>
  Pick best_in_row(NodeId key, std::uint64_t remaining,
                   std::span<const NodeId> ids, Keep&& keep = {}) const {
    const std::size_t n = ids.size();
    std::size_t j = static_cast<std::size_t>(
        std::upper_bound(ids.begin(), ids.end(), key & mask) - ids.begin());
    for (std::size_t walked = 0; walked < n; ++walked) {
      j = (j == 0 ? n : j) - 1;
      const std::uint64_t r = rank(ids[j], key);
      if (r >= remaining) break;
      if (keep(j, r)) return {j, r};
    }
    return {kNoWinner, remaining};
  }

  /// The closest live predecessor of `key`.
  NodeIndex live_terminal(NodeId key, const FailureSet& dead) const {
    const RingView ring = net->ring();
    std::size_t pos = ring.successor_pos(key);
    // predecessor_or_self: a successor sitting on the key is responsible.
    const std::size_t n = ring.size();
    if (net->id(ring.at(pos)) != key) pos = (pos + n - 1) % n;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeIndex candidate = ring.at((pos + n - i) % n);
      if (!dead.dead(candidate)) return candidate;
    }
    throw std::logic_error("live_responsible: everyone is dead");
  }

  /// The paper's leaf sets (§2.3): the next `size` live successors of `m`
  /// at every level of its domain chain, into `out` (cleared first).
  void live_leaf_set(NodeIndex m, const FailureSet& dead, int size,
                     std::vector<NodeIndex>& out) const {
    out.clear();
    for (const int d : net->domains().domain_chain(m)) {
      const RingView ring = net->domain_ring(d);
      if (ring.size() < 2) continue;
      std::size_t pos = ring.successor_pos((net->id(m) + 1) & mask);
      for (int i = 0; i < size; ++i) {
        const NodeIndex s = ring.at(pos);
        if (s == m) break;  // wrapped all the way around
        if (!dead.dead(s)) out.push_back(s);
        pos = (pos + 1) % ring.size();
      }
    }
  }
};

/// Greedy XOR metric of the Kademlia and Kandy families.
struct XorMetric {
  static constexpr bool kHasLeafSet = false;
  const OverlayNetwork* net;
  std::uint64_t mask;

  explicit XorMetric(const OverlayNetwork& n)
      : net(&n), mask(n.space().mask()) {}

  std::uint64_t rank(NodeId id, NodeId key) const {
    return (id ^ key) & mask;
  }
  NodeIndex terminal(NodeId key) const { return net->xor_closest(key); }

  /// The pick over one CSR row: argmin_rank's scan.
  template <typename Keep = KeepAll>
  Pick best_in_row(NodeId key, std::uint64_t remaining,
                   std::span<const NodeId> ids, Keep&& keep = {}) const {
    return argmin_rank(*this, key, remaining, ids.size(),
                       [data = ids.data()](std::size_t j) { return data[j]; },
                       keep);
  }

  /// The live node minimizing XOR distance to `key`.
  NodeIndex live_terminal(NodeId key, const FailureSet& dead) const {
    const NodeIndex structural = net->xor_closest(key);
    if (!dead.dead(structural)) return structural;
    return live_xor_closest(*net, net->ring().members(), key, dead);
  }
};

/// Fault-free walk: no liveness, bans, retries or leaf set.
struct NoFaults {
  static constexpr bool kActive = false;
};

/// Per-query fault context of a faulty walk. `leaf_set` is the ring
/// metric's leaf-set depth; the other walks ignore it.
struct Faults {
  static constexpr bool kActive = true;
  const FailureSet& dead;
  DropRoller& drops;
  FaultScratch& scratch;
  int leaf_set = 0;

  bool banned_node(NodeIndex node) const {
    return std::find(scratch.banned.begin(), scratch.banned.end(), node) !=
           scratch.banned.end();
  }
};

/// The dispatch of every router's faulty route_into/probe: throws
/// std::invalid_argument, prefixed by `who`, on a dead source; runs
/// `walk(NoFaults{})` when nothing is injected, so the zero-fault route is
/// the plain router's comparison for comparison; else `walk(faults)`.
template <typename Walk>
ResilientProbe with_faults(NodeIndex from, const Faults& faults,
                           const char* who, Walk&& walk) {
  if (faults.dead.dead(from)) {
    throw std::invalid_argument(std::string(who) + ": source is dead");
  }
  if (!faults.dead.any() && !faults.drops.active()) return walk(NoFaults{});
  return walk(faults);
}

struct NullRecorder {
  void operator()(NodeIndex) const {}
};

struct PathRecorder {
  std::vector<NodeIndex>* path;
  void operator()(NodeIndex node) const { path->push_back(node); }
};

/// Greedy route from `from` towards `key`: records every node entered
/// after `from` and stops at the first node with no progressing
/// candidate; ok iff that node is the metric's terminal for `key` (among
/// live nodes under Faults). Exceeding `max_hops` means a broken table.
/// Under Faults the fallback tally counts a hop whose rank is worse than
/// the best rank of the row including dead and banned nodes, and every
/// leaf-set hop.
template <typename Metric, typename FaultPolicy, typename Recorder>
ResilientProbe greedy_walk(const Metric& metric, const LinkTable& links,
                           int max_hops, NodeIndex from, NodeId key,
                           const FaultPolicy& faults, Recorder&& record) {
  const OverlayNetwork& net = *metric.net;
  ResilientProbe p{from, 0, false, 0, 0};
  for (int step = 0; step < max_hops; ++step) {
    const NodeIndex current = p.terminal;
    const std::uint64_t remaining = metric.rank(net.id(current), key);
    const auto row = links.neighbors(current);
    const auto ids = links.neighbor_ids(current);
    NodeIndex next = current;
    if constexpr (!FaultPolicy::kActive) {
      const Pick pick = metric.best_in_row(key, remaining, ids);
      if (pick.index == kNoWinner) {
        p.ok = current == metric.terminal(key);
        return p;
      }
      next = row[pick.index];
    } else {
      faults.scratch.banned.clear();
      bool leaf_fresh = false;
      for (int attempts = kRetryBudget;;) {  // per-hop retry ladder
        std::uint64_t best_any = remaining;  // incl. dead and banned
        const Pick pick = metric.best_in_row(
            key, remaining, ids, [&](std::size_t j, std::uint64_t r) {
              best_any = std::min(best_any, r);
              return !faults.dead.dead(row[j]) &&
                     !faults.banned_node(row[j]);
            });
        next = pick.index == kNoWinner ? current : row[pick.index];
        bool fallback = pick.rank > best_any;
        if constexpr (Metric::kHasLeafSet) {
          if (next == current) {  // no live link progresses: the leaf set
            if (!leaf_fresh) {
              metric.live_leaf_set(current, faults.dead, faults.leaf_set,
                                   faults.scratch.leaf);
              leaf_fresh = true;
            }
            const std::vector<NodeIndex>& leaf = faults.scratch.leaf;
            const Pick via = argmin_rank(
                metric, key, remaining, leaf.size(),
                [&](std::size_t j) { return net.id(leaf[j]); },
                [&](std::size_t j, std::uint64_t) {
                  return !faults.banned_node(leaf[j]);
                });
            if (via.index != kNoWinner) next = leaf[via.index];
            fallback = true;
          }
        }
        if (next == current) {
          p.ok = current == metric.live_terminal(key, faults.dead);
          return p;
        }
        if (!faults.drops.drop()) {
          p.fallback_hops += fallback;
          break;
        }
        faults.scratch.banned.push_back(next);
        ++p.retries;
        if (--attempts <= 0) return p;  // lost
      }
    }
    p.terminal = next;
    ++p.hops;
    record(next);
  }
  return p;  // hop guard exceeded: structurally broken table
}

/// One lane of detail::interleaved_probe_batch (overlay/batch_probe.h has
/// the fetch/advance contract). The lane carries the current node's id
/// forward from the winning scan entry — target_ids_[k] is
/// ids[targets_[k]] by CSR construction — so a steady-state hop never
/// touches the overlay's id array; only a fresh lane reads it once.
template <typename Metric>
struct GreedyLane {
  Metric metric;
  const LinkTable& links;
  int max_hops;

  struct Lane {
    std::size_t query_index;
    NodeIndex current;
    NodeId cur_id;  // == net.id(current) once need_id clears
    NodeId key;
    int hops;
    LinkOffset row_begin;
    LinkOffset row_end;
    bool need_id;
  };

  void begin(Lane& l, const Query& q, std::size_t query_index) const {
    l = {query_index, q.from, 0, q.key, 0, 0, 0, true};
    prefetch_ro(metric.net->ids().data() + q.from);
    links.prefetch_row_bounds(q.from);
  }

  void fetch(Lane& l) const {
    if (l.need_id) {
      l.cur_id = metric.net->id(l.current);
      l.need_id = false;
    }
    const auto [b, e] = links.row_bounds(l.current);
    l.row_begin = b;
    l.row_end = e;
    links.prefetch_row_payload(b, e);
  }

  bool advance(Lane& l, RouteProbe& out) const {
    if (l.hops >= max_hops) {  // greedy_walk's hop-guard exhaustion
      out = {l.current, l.hops, false};
      return true;
    }
    const NodeId* ids = links.target_ids_data() + l.row_begin;
    const Pick pick = metric.best_in_row(
        l.key, metric.rank(l.cur_id, l.key),
        {ids, static_cast<std::size_t>(l.row_end - l.row_begin)});
    if (pick.index == kNoWinner) {
      out = {l.current, l.hops, l.current == metric.terminal(l.key)};
      return true;
    }
    l.current = links.targets_data()[l.row_begin + pick.index];
    l.cur_id = ids[pick.index];
    ++l.hops;
    links.prefetch_row_bounds(l.current);
    return false;
  }
};

}  // namespace canon::detail

#endif  // CANON_OVERLAY_GREEDY_KERNEL_H
