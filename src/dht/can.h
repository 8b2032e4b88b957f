// Binary-prefix-tree CAN (Section 3.4 of the paper).
//
// The paper generalizes CAN to a logarithmic-degree network whose node
// identifiers form a binary prefix tree: the path from the root to a leaf
// is a node's zone. Shorter IDs act as multiple virtual (padded) nodes, and
// edges are hypercube edges between virtual nodes (equivalently: zones
// adjacent across a one-bit prefix flip). Routing is left-to-right bit
// fixing on zone prefixes.
//
// Zone partition: the binary trie of the member IDs. Every member's
// *primary* zone is its shortest unique prefix, which always contains its
// own ID. Trie branches with members on only one side leave the empty
// sibling block uncovered; such blocks are assigned to the boundary member
// of the populated side (the classic CAN situation of a node owning more
// than one zone). The partition is a deterministic function of the member
// set, which dynamic-maintenance tests rely on.
#ifndef CANON_DHT_CAN_H
#define CANON_DHT_CAN_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "overlay/stepper.h"

namespace canon {

/// The CAN zone partition for one member set (see file comment), stored
/// flat: the ID-sorted member list, a CSR of zones per member (primary
/// zone first) and a pointer-free trie. A member is addressed on the hot
/// paths by its *slot*, its position in the member list; for a partition
/// of a whole network (members 0..n-1) the slot of node i is i.
class ZoneTree {
 public:
  /// Builds the partition for `members` (node indices sorted by ascending
  /// ID — domain member lists already are).
  ZoneTree(const OverlayNetwork& net, std::span<const std::uint32_t> members);

  struct Zone {
    NodeId prefix = 0;  ///< block start (aligned): top `len` bits meaningful
    int len = 0;        ///< prefix length in bits (0 = whole space)
  };

  /// Slot value of a node that is not a member.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  std::size_t member_count() const { return members_.size(); }

  /// Every zone owned by the member at `slot`, primary first.
  std::span<const Zone> zones_at(std::uint32_t slot) const {
    return {zones_.data() + zone_offsets_[slot],
            zones_.data() + zone_offsets_[slot + 1]};
  }

  /// Longest prefix match between `key` and any zone owned by the member
  /// at `slot` (each zone's match is capped at its own length). Equals the
  /// zone length of the key's containing zone iff the member owns the key.
  /// The one zone-match scan every CAN and Can-Can path ranks by.
  int match_at(std::uint32_t slot, NodeId key) const {
    int best = 0;
    for (const Zone& z : zones_at(slot)) {
      const NodeId diff = (z.prefix ^ key) & mask_;
      const int m = std::min(bits_ - static_cast<int>(std::bit_width(diff)), z.len);
      best = std::max(best, m);
    }
    return best;
  }

  /// The primary zone of `node`: its shortest unique prefix among the
  /// members. Always contains the node's own ID.
  Zone zone(std::uint32_t node) const;

  /// Every zone owned by `node` (primary first).
  std::vector<Zone> zones_of(std::uint32_t node) const;

  /// The member owning the zone containing `point`.
  std::uint32_t owner_of(NodeId point) const;

  /// Owners of all zones adjacent to `node`'s *primary* zone across the
  /// face at prefix position `pos` (0 = most significant;
  /// pos < zone(node).len). Appends to `out`.
  void face_neighbors(std::uint32_t node, int pos,
                      std::vector<std::uint32_t>& out) const;

  /// All distinct CAN neighbors of `node`: every face of every owned zone,
  /// deduplicated, excluding `node` itself.
  std::vector<std::uint32_t> neighbors(std::uint32_t node) const;

  /// match_at for a member given by node index.
  int match_len(std::uint32_t node, NodeId key) const;

 private:
  /// A leaf has child[0] < 0 and names its owner's node index.
  struct TrieNode {
    std::int32_t child[2] = {-1, -1};
    std::uint32_t owner = 0;
  };
  /// A zone of the member at `slot`, in trie creation order.
  struct Leaf {
    std::uint32_t slot;
    bool primary;
    Zone zone;
  };

  std::int32_t build(std::size_t lo, std::size_t hi, NodeId prefix, int len,
                     std::vector<Leaf>& leaves);
  std::int32_t make_leaf(std::size_t slot, NodeId prefix, int len,
                         std::vector<Leaf>& leaves);
  /// The member's slot by binary search (the hot paths carry slots
  /// instead); throws std::invalid_argument, prefixed by `who`, for a
  /// non-member.
  std::uint32_t checked_slot(std::uint32_t node, const char* who) const;
  void collect_leaf_owners(std::int32_t trie_node,
                           std::vector<std::uint32_t>& out) const;
  void block_owners(NodeId prefix, int len,
                    std::vector<std::uint32_t>& out) const;

  const OverlayNetwork* net_;
  int bits_;
  NodeId mask_;
  std::vector<std::uint32_t> members_;       // node indices, ID-sorted
  std::vector<std::uint32_t> zone_offsets_;  // member_count() + 1
  std::vector<Zone> zones_;                  // by slot, primary first
  std::vector<TrieNode> trie_;               // root at 0
};

/// Builds the flat logarithmic-degree CAN network over all nodes.
/// The returned tree is needed for routing (CanRouter).
struct CanNetwork {
  ZoneTree tree;
  LinkTable links;
};
CanNetwork build_can(const OverlayNetwork& net);

/// Greedy bit-fixing router over a CAN zone partition: each hop moves to
/// the neighbor with the longest zone-prefix match with the key; a final
/// hop to a neighbor owning the key is taken when prefix matches cannot
/// grow (the key's zone may be a short empty-sibling block). Terminates at
/// the owner of the key's zone. Follows the hot-path contract of
/// overlay/routing.h; route() records no telemetry.
///
/// The faulty overloads run the same walk over live neighbors with two
/// recovery mechanisms. (1) Zone takeover: when the key's owner is dead,
/// the live member XOR-closest to the key is the target (CAN's
/// neighbor-takeover rule collapsed onto a static simulation). (2)
/// Live-face fallback: when no live neighbor grows the prefix match, the
/// query sidesteps to an unvisited live neighbor strictly XOR-closer to the
/// key. Dropped forwarding attempts retry the next candidate, up to
/// kRetryBudget per hop.
class CanRouter {
 public:
  /// `tree` must partition all of `net`'s nodes (build_can's tree).
  CanRouter(const OverlayNetwork& net, const ZoneTree& tree,
            const LinkTable& links);

  Route route(std::uint32_t from, NodeId key) const;
  void route_into(std::uint32_t from, NodeId key, Route& out) const;
  RouteProbe probe(std::uint32_t from, NodeId key) const;

  /// Faulty overloads (see the class comment): ok iff the terminal is the
  /// key's owner, or its live takeover when the owner is dead.
  ResilientProbe route_into(std::uint32_t from, NodeId key,
                            const FailureSet& dead, DropRoller& drops,
                            FaultScratch& scratch, Route& out) const;
  ResilientProbe probe(std::uint32_t from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, FaultScratch& scratch) const;

  /// One resumable hop (overlay/stepper.h): candidates that grow the
  /// prefix match, longest match first, else the key's owner when it is a
  /// neighbor. Candidate 0 is route()'s hop.
  StepResult step(std::uint32_t at, NodeId key,
                  std::span<NodeIndex> out) const;

 private:
  const OverlayNetwork* net_;
  const ZoneTree* tree_;
  const LinkTable* links_;
  int max_hops_;
};

}  // namespace canon

#endif  // CANON_DHT_CAN_H
