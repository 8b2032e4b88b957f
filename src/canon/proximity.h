// Proximity adaptation (Section 3.6): group-based link construction.
//
// Nodes sharing the top T ID bits form a group; edge-creation rules apply
// to group IDs, and the concrete endpoint inside a target group is chosen
// as the lowest-latency node among up to `sample_size` sampled members
// (the paper cites s = 32 as sufficient). Nodes within a group form a
// separate dense network (here: a clique), "necessary even otherwise for
// replication and fault tolerance". T is chosen so groups have a constant
// expected size.
//
// Chord (Prox.) applies the group construction globally; Crescendo (Prox.)
// builds normal Crescendo rings below the root and applies the group
// construction only to the top-level merge.
#ifndef CANON_CANON_PROXIMITY_H
#define CANON_CANON_PROXIMITY_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "overlay/stepper.h"

namespace canon {

struct ProximityConfig {
  int target_group_size = 16;  ///< expected nodes per group
  int sample_size = 32;        ///< latency samples per group link (s)
};

/// The grouping of an overlay's nodes by their top-T ID bits.
class GroupedOverlay {
 public:
  GroupedOverlay(const OverlayNetwork& net, int target_group_size);

  struct Group {
    NodeId gid = 0;
    std::vector<std::uint32_t> members;  ///< ascending by ID
  };

  /// Number of bits in a group ID (T). 0 means a single group.
  int prefix_bits() const { return prefix_bits_; }
  NodeId gid_of_key(NodeId key) const { return key >> shift_; }
  NodeId gid_of_node(std::uint32_t node) const;

  const std::vector<Group>& groups() const { return groups_; }
  int group_index_of(std::uint32_t node) const;

  /// Index of the first non-empty group with gid >= g (wrapping).
  int group_successor(NodeId g) const;

  /// Index of the group responsible for `key`: the largest non-empty gid
  /// <= the key's gid (wrapping).
  int responsible_group(NodeId key) const;

  /// The node answering `key` under group-based responsibility: the
  /// ring-predecessor of the key among the responsible group's members.
  std::uint32_t responsible(NodeId key) const;

  /// Clockwise distance between group IDs (mod 2^T).
  std::uint64_t group_distance(NodeId from_gid, NodeId to_gid) const;

 private:
  const OverlayNetwork* net_;
  int prefix_bits_ = 0;
  int shift_ = 0;
  std::vector<Group> groups_;            // ascending by gid
  std::vector<int> group_index_;         // per node
};

/// Flat Chord with proximity adaptation: the Chord rule on group IDs, a
/// latency-sampled endpoint per group link, plus intra-group cliques.
LinkTable build_chord_prox(const OverlayNetwork& net,
                           const GroupedOverlay& groups,
                           const HopCost& latency, const ProximityConfig& cfg,
                           Rng& rng);

/// Crescendo with proximity adaptation at the top level only.
LinkTable build_crescendo_prox(const OverlayNetwork& net,
                               const GroupedOverlay& groups,
                               const HopCost& latency,
                               const ProximityConfig& cfg, Rng& rng);

/// Two-phase greedy router for group-based structures: greedy clockwise on
/// group IDs (never overshooting the responsible group), with ties broken
/// by clockwise ID progress, then a final intra-group hop.
///
/// The faulty overloads run the same walk over live neighbors, aiming at
/// the live responsible node (a dead responsible's duty falls to its
/// closest live ring predecessor — the intra-group clique is "necessary
/// even otherwise for replication and fault tolerance"). There is no
/// fallback, and fallback_hops stays 0: a live neighbor strictly closer to
/// the target in (group distance, ID distance) order is exactly a live
/// neighbor that makes greedy progress, so when the greedy scan finds
/// none, no sidestep could either. Dropped forwarding attempts retry the
/// next candidate (the final clique hop retransmits to the same target),
/// up to kRetryBudget per hop.
class GroupRouter {
 public:
  GroupRouter(const OverlayNetwork& net, const GroupedOverlay& groups,
              const LinkTable& links);

  Route route(std::uint32_t from, NodeId key) const;

  /// Allocation-free variants (see the hot-path contract in
  /// overlay/routing.h): identical outcome, caller's buffer / no path.
  /// Like route(), these touch no telemetry and are safe to call
  /// concurrently on one const router.
  void route_into(std::uint32_t from, NodeId key, Route& out) const;
  RouteProbe probe(std::uint32_t from, NodeId key) const;

  /// Faulty overloads (see the class comment): ok iff the terminal is the
  /// responsible node, or its closest live predecessor when it is dead.
  ResilientProbe route_into(std::uint32_t from, NodeId key,
                            const FailureSet& dead, DropRoller& drops,
                            FaultScratch& scratch, Route& out) const;
  ResilientProbe probe(std::uint32_t from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, FaultScratch& scratch) const;

  /// Interleaved batch probe over the two-phase group walk; see
  /// RingRouter::probe_batch in overlay/routing.h for the contract
  /// (out[i] == probe(queries[i]) at every batch width).
  void probe_batch(std::span<const Query> queries,
                   std::span<RouteProbe> out) const;

  /// One resumable hop (overlay/stepper.h): inside the responsible group
  /// the responsible node when it is a neighbor, else the neighbors that
  /// make progress in the walk's order, best first. Candidate 0 is
  /// route()'s hop.
  StepResult step(std::uint32_t at, NodeId key,
                  std::span<NodeIndex> out) const;

 private:
  const OverlayNetwork* net_;
  const GroupedOverlay* groups_;
  const LinkTable* links_;
  int max_hops_;
};

}  // namespace canon

#endif  // CANON_CANON_PROXIMITY_H
