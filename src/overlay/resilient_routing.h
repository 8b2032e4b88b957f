// Failure-aware greedy routing for the ring and XOR families.
//
// The paper's leaf sets (Section 2.3) exist so routing survives node
// failures: when a finger or successor is dead, a node falls back to the
// next-best live neighbor, and ultimately to its per-level successor list.
// ResilientRingRouter routes over a link structure in the presence of a
// FailureSet: dead neighbors are skipped, and when a node's own links give
// no live progress, the leaf set (the next `leaf_set` successors at every
// level of its domain chain) is consulted — mirroring what a real
// deployment keeps in soft state. ResilientXorRouter is the Kademlia-style
// counterpart: greedy XOR descent over live neighbors with up to
// `retry_budget` (alpha) candidates retried per hop when forwarding
// attempts are dropped.
//
// Both are the plain routers' greedy kernel (overlay/greedy_kernel.h) run
// with its fault policy: the same rank and first-best rule, with dead and
// banned candidates vetoed, dropped forwards retried on the runner-up, and
// a hop counted as a fallback when its rank is worse than the row's best
// including dead nodes (or when it comes from the leaf set). With an empty
// FailureSet and inactive drops they run the fault-free kernel itself, so
// they take hop-for-hop the plain RingRouter/XorRouter path.
//
// Both routers follow the hot-path contract of overlay/routing.h:
// route_into/probe touch no telemetry and no mutable router state, take
// every per-query input (FailureSet, DropRoller, Scratch) by argument, and
// are therefore safe to run concurrently on one const router — the
// QueryEngine's resilient batch mode relies on that.
#ifndef CANON_OVERLAY_RESILIENT_ROUTING_H
#define CANON_OVERLAY_RESILIENT_ROUTING_H

#include <cstdint>
#include <vector>

#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"

namespace canon {

class ResilientRingRouter {
 public:
  /// `leaf_set` = successors remembered per hierarchy level (paper: "each
  /// node maintains a list of successors at every level"); `retry_budget`
  /// = forwarding attempts per hop before the query is declared lost.
  ResilientRingRouter(const OverlayNetwork& net, const LinkTable& links,
                      int leaf_set = 4, int retry_budget = kRetryBudget);

  /// Caller-owned per-shard buffers; capacity is reused across queries
  /// (the allocation-free contract of the batch hot paths).
  struct Scratch {
    std::vector<std::uint32_t> leaf;    ///< leaf-set candidates of one hop
    std::vector<std::uint32_t> banned;  ///< candidates dropped this hop
  };

  /// Greedy clockwise routing from a live node, skipping dead neighbors
  /// and falling back to leaf-set successors; ok iff the terminal is the
  /// key's responsible node *among live nodes*. Writes the path into
  /// `out` (capacity reused). Throws std::invalid_argument on a dead
  /// source.
  ResilientProbe route_into(std::uint32_t from, NodeId key,
                            const FailureSet& dead, DropRoller& drops,
                            Scratch& scratch, Route& out) const;

  /// Terminal-only variant; same result fields, no path storage.
  ResilientProbe probe(std::uint32_t from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, Scratch& scratch) const;

  /// Single-query convenience (storage, examples, tests): fresh buffers,
  /// no message drops.
  Route route(std::uint32_t from, NodeId key, const FailureSet& dead) const;

  /// The live node responsible for `key` (closest live predecessor).
  std::uint32_t live_responsible(NodeId key, const FailureSet& dead) const;

  /// Live leaf-set fallback candidates of `m`: the next `leaf_set` live
  /// successors at every level of its domain chain, collected into the
  /// caller-owned `out` (cleared first, capacity reused).
  void live_candidates(std::uint32_t m, const FailureSet& dead,
                       std::vector<std::uint32_t>& out) const;

 private:
  const OverlayNetwork* net_;
  const LinkTable* links_;
  int leaf_set_;
  int retry_budget_;
  int max_hops_;
};

/// Failure-aware greedy XOR descent (Kademlia/Kandy). Per hop, up to
/// `retry_budget` live candidates are tried in order of XOR progress —
/// the alpha-parallel lookup of Maymounkov & Mazières collapsed onto a
/// simulator: a dropped attempt bans that candidate and the scan resumes.
class ResilientXorRouter {
 public:
  ResilientXorRouter(const OverlayNetwork& net, const LinkTable& links,
                     int retry_budget = kRetryBudget);

  struct Scratch {
    std::vector<std::uint32_t> banned;  ///< candidates dropped this hop
  };

  /// ok iff the terminal minimizes XOR distance to the key *among live
  /// nodes*. Throws std::invalid_argument on a dead source.
  ResilientProbe route_into(std::uint32_t from, NodeId key,
                            const FailureSet& dead, DropRoller& drops,
                            Scratch& scratch, Route& out) const;
  ResilientProbe probe(std::uint32_t from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, Scratch& scratch) const;

  /// The live node minimizing XOR distance to `key`.
  std::uint32_t live_closest(NodeId key, const FailureSet& dead) const;

 private:
  const OverlayNetwork* net_;
  const LinkTable* links_;
  int retry_budget_;
  int max_hops_;
};

}  // namespace canon

#endif  // CANON_OVERLAY_RESILIENT_ROUTING_H
