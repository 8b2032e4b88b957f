// Can-Can: the Canonical version of the binary-prefix-tree CAN
// (Section 3.4).
//
// Every domain of the hierarchy carries its own CAN zone partition over its
// members. A node keeps all CAN edges of its leaf domain's partition; at
// each higher level it keeps a face edge only if the edge is "shorter than
// the shortest link at the lower level" — on the virtual hypercube a face
// at prefix position i spans distance 2^(N-1-i), and the shortest
// lower-level link is the sibling face of the lower zone (2^(N - len)), so
// the rule keeps exactly the faces at positions >= len(lower zone).
//
// Routing proceeds stage by stage through progressively larger domains:
// within the current domain's partition the message greedily extends the
// prefix match with the key until it reaches the key's zone owner, then the
// stage lifts to the parent domain.
#ifndef CANON_CANON_CANCAN_H
#define CANON_CANON_CANCAN_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dht/can.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "overlay/stepper.h"

namespace canon {

namespace telemetry {
class ScopedTimer;
}

/// The per-domain zone partitions of a hierarchy plus a per-(node, level)
/// index into them. A node belongs to exactly one domain per level of its
/// chain, so one (domain, slot) entry per (node, level) answers both "is
/// this node in the stage domain?" and "where are its zones?" with a
/// single load.
class CanCanZones {
 public:
  explicit CanCanZones(const OverlayNetwork& net);

  const OverlayNetwork& net() const { return *net_; }

  /// Zone partition of domain `d` (a DomainTree index).
  const ZoneTree& tree(int d) const {
    return *trees_[static_cast<std::size_t>(d)];
  }

  /// The slot of `node` in the partition of domain `d` (at depth `depth`),
  /// or ZoneTree::kNoSlot when `node` is not in `d`.
  std::uint32_t slot_in(NodeIndex node, int d, int depth) const {
    const Level& l = levels_[static_cast<std::size_t>(node) * stride_ +
                             static_cast<std::size_t>(depth)];
    return l.domain == d ? l.slot : ZoneTree::kNoSlot;
  }

  /// The node that should answer `key` (owner of the key's zone in the
  /// root partition).
  std::uint32_t responsible(NodeId key) const;

 private:
  struct Level {
    std::int32_t domain = -1;  ///< -1 below the node's leaf depth
    std::uint32_t slot = 0;
  };

  const OverlayNetwork* net_;
  std::vector<std::unique_ptr<ZoneTree>> trees_;  // by domain index
  std::size_t stride_;                            // max depth + 1
  std::vector<Level> levels_;                     // node * stride_ + depth
};

/// The per-domain zone partitions plus the Canon-filtered link table.
class CanCanNetwork {
 public:
  explicit CanCanNetwork(const OverlayNetwork& net);

  const OverlayNetwork& net() const { return zones_.net(); }
  const CanCanZones& zones() const { return zones_; }
  const LinkTable& links() const { return links_; }

  /// Zone partition of domain `d` (a DomainTree index).
  const ZoneTree& tree(int d) const { return zones_.tree(d); }

  /// The node that should answer `key` (owner of the key's zone in the
  /// root partition).
  std::uint32_t responsible(NodeId key) const {
    return zones_.responsible(key);
  }

 private:
  /// The public constructor delegates here with the build timer running,
  /// so build.cancan_ms spans the partitions and the link table.
  CanCanNetwork(const OverlayNetwork& net, const telemetry::ScopedTimer&);

  CanCanZones zones_;
  LinkTable links_;
};

/// Staged greedy router over a Can-Can link table (see file comment).
/// Follows the hot-path contract of overlay/routing.h: route_into() and
/// probe() allocate nothing and record nothing. The faulty overloads run
/// the stage walk over live neighbors, with per-stage zone takeover (a dead
/// stage owner is replaced by the live stage member XOR-closest to the key
/// — every stage domain contains the live source, so a takeover always
/// exists) and the per-hop drop-retry ladder of the other routers. route() additionally
/// reports `stuck_count` across its lifetime: routes that dead-ended. The
/// counts are atomic so concurrent route() calls on one const router stay
/// race-free; they are diagnostics, not part of the deterministic
/// per-query results.
///
/// Ordering contract: every access uses memory_order_relaxed. The counters
/// are merge-only tallies: no other memory is published through them and
/// readers want a sum, not a synchronization point. Do not "upgrade" these
/// to acquire/release — there is nothing to acquire.
class CanCanRouter {
 public:
  /// `zones` and `links` are borrowed; `links` must be the Can-Can table
  /// of zones.net() (throws std::invalid_argument unless routable).
  CanCanRouter(const CanCanZones& zones, const LinkTable& links);
  explicit CanCanRouter(const CanCanNetwork& network)
      : CanCanRouter(network.zones(), network.links()) {}

  Route route(std::uint32_t from, NodeId key) const;
  void route_into(std::uint32_t from, NodeId key, Route& out) const;
  RouteProbe probe(std::uint32_t from, NodeId key) const;

  /// Faulty overloads (see the class comment): ok iff the walk finished
  /// the root partition at the key's live owner. They leave the route()
  /// diagnostics untouched.
  ResilientProbe route_into(std::uint32_t from, NodeId key,
                            const FailureSet& dead, DropRoller& drops,
                            FaultScratch& scratch, Route& out) const;
  ResilientProbe probe(std::uint32_t from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, FaultScratch& scratch) const;

  /// One resumable hop (overlay/stepper.h). `state` packs the stage
  /// domain plus the previously visited node:
  /// (prev_node + 1) << 32 | (stage_domain + 1); 0 = first step. The walk
  /// keeps every visited node to guard the XOR fallback against cycles,
  /// which cannot ride in 64 bits — the immediate-backtrack guard catches
  /// the 2-cycles the fallback actually produces and the simulator's hop
  /// guard bounds the rest.
  StepResult step(std::uint32_t at, NodeId key, std::uint64_t& state,
                  std::span<NodeIndex> out) const;

  /// route() calls that dead-ended (failed).
  std::size_t stuck_count() const {
    return stuck_.load(std::memory_order_relaxed);
  }
  /// Hops of route() calls that needed the XOR-distance fallback.
  std::size_t fallback_count() const {
    return fallback_.load(std::memory_order_relaxed);
  }

 private:
  const CanCanZones* zones_;
  const LinkTable* links_;
  int max_hops_;
  mutable std::atomic<std::size_t> stuck_{0};
  mutable std::atomic<std::size_t> fallback_{0};
};

}  // namespace canon

#endif  // CANON_CANON_CANCAN_H
