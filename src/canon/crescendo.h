// Crescendo: the Canonical (hierarchical) version of Chord (Section 2).
//
// Construction runs bottom-up over the conceptual hierarchy. Within its
// leaf domain a node keeps plain Chord fingers. At each higher level, the
// child rings merge: a node links to a node of the enclosing ring iff
//   (a) it is the closest node at ring distance >= 2^k for some k
//       (the Chord rule over the merged member set), and
//   (b) it is strictly closer than every node of the node's own child ring
//       (equivalently: closer than the child-ring successor).
// The result is that each domain's nodes form a complete Crescendo ring of
// their own, giving intra-domain path locality and inter-domain path
// convergence under plain greedy clockwise routing.
#ifndef CANON_CANON_CRESCENDO_H
#define CANON_CANON_CRESCENDO_H

#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Adds all of node `m`'s Crescendo links (every hierarchy level).
void add_crescendo_links(const OverlayNetwork& net, NodeIndex m,
                         std::vector<NodeIndex>& row);

/// Builds the complete Crescendo network. With a flat population this is
/// exactly Chord.
LinkTable build_crescendo(const OverlayNetwork& net);

/// Default shard size for build_crescendo_streamed: mega-scale builds
/// amortize each shard's claim and chunk over many nodes.
inline constexpr std::size_t kStreamShardNodes = 8192;

/// Builds the same network as build_crescendo (byte-identical: operator==
/// compares equal) in shards of `shard_nodes`, timed under its own name.
/// This is the mega-scale entry point; `on_shard` is LinkTable::build's
/// progress hook, through which the resource observatory samples the RSS
/// timeline. Keep the default grain for small builds: a shard per 8192
/// nodes leaves workers idle below a few hundred thousand nodes.
LinkTable build_crescendo_streamed(
    const OverlayNetwork& net, std::size_t shard_nodes = kStreamShardNodes,
    const LinkTable::ShardFn& on_shard = {});

}  // namespace canon

#endif  // CANON_CANON_CRESCENDO_H
