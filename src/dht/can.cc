#include "dht/can.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "overlay/greedy_kernel.h"
#include "telemetry/scoped_timer.h"

namespace canon {

namespace {

/// Bit of `id` at prefix position `pos` (0 = most significant of the space).
int bit_at(NodeId id, int pos, int bits) {
  return static_cast<int>((id >> (bits - 1 - pos)) & 1);
}

}  // namespace

ZoneTree::ZoneTree(const OverlayNetwork& net,
                   std::span<const std::uint32_t> members)
    : net_(&net),
      bits_(net.space().bits()),
      mask_(net.space().mask()),
      members_(members.begin(), members.end()) {
  if (members.empty()) throw std::invalid_argument("ZoneTree: no members");
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (net.id(members[i - 1]) >= net.id(members[i])) {
      throw std::invalid_argument("ZoneTree: members must be ID-sorted");
    }
  }
  std::vector<Leaf> leaves;
  leaves.reserve(2 * members.size());
  trie_.reserve(4 * members.size());
  build(0, members.size(), 0, 0, leaves);

  // CSR of zones by slot: the primary zone first, the rest in trie
  // creation order.
  zone_offsets_.assign(members_.size() + 1, 0);
  for (const Leaf& l : leaves) ++zone_offsets_[l.slot + 1];
  for (std::size_t i = 0; i < members_.size(); ++i) {
    zone_offsets_[i + 1] += zone_offsets_[i];
  }
  zones_.resize(leaves.size());
  std::vector<std::uint32_t> next(members_.size(), 1);  // past the primary
  for (const Leaf& l : leaves) {
    const std::uint32_t at =
        zone_offsets_[l.slot] + (l.primary ? 0 : next[l.slot]++);
    zones_[at] = l.zone;
  }
}

std::int32_t ZoneTree::make_leaf(std::size_t slot, NodeId prefix, int len,
                                 std::vector<Leaf>& leaves) {
  const auto idx = static_cast<std::int32_t>(trie_.size());
  trie_.push_back(TrieNode{{-1, -1}, members_[slot]});
  // The primary leaf is the one containing the owner's own ID.
  const NodeId id = net_->id(members_[slot]);
  const bool primary =
      len == 0 || (id >> (bits_ - len)) == (prefix >> (bits_ - len));
  leaves.push_back(Leaf{static_cast<std::uint32_t>(slot), primary,
                        Zone{prefix, len}});
  return idx;
}

std::int32_t ZoneTree::build(std::size_t lo, std::size_t hi, NodeId prefix,
                             int len, std::vector<Leaf>& leaves) {
  if (hi - lo == 1) return make_leaf(lo, prefix, len, leaves);
  if (len >= bits_) throw std::logic_error("ZoneTree: duplicate IDs");

  // Split the ID-sorted span at the first member whose bit `len` is 1.
  const NodeId split_id = prefix | (NodeId{1} << (bits_ - 1 - len));
  const auto first = members_.begin();
  const std::size_t mid = static_cast<std::size_t>(
      std::partition_point(first + static_cast<std::ptrdiff_t>(lo),
                           first + static_cast<std::ptrdiff_t>(hi),
                           [&](std::uint32_t m) {
                             return net_->id(m) < split_id;
                           }) -
      first);

  const auto idx = static_cast<std::int32_t>(trie_.size());
  trie_.emplace_back();
  std::int32_t left;
  std::int32_t right;
  if (mid == lo) {
    // Left half empty: owned by the boundary member (smallest ID on the
    // populated side), the member "closest across" the empty block.
    left = make_leaf(lo, prefix, len + 1, leaves);
    right = build(lo, hi, split_id, len + 1, leaves);
  } else if (mid == hi) {
    right = make_leaf(hi - 1, split_id, len + 1, leaves);
    left = build(lo, hi, prefix, len + 1, leaves);
  } else {
    left = build(lo, mid, prefix, len + 1, leaves);
    right = build(mid, hi, split_id, len + 1, leaves);
  }
  trie_[static_cast<std::size_t>(idx)].child[0] = left;
  trie_[static_cast<std::size_t>(idx)].child[1] = right;
  return idx;
}

std::uint32_t ZoneTree::checked_slot(std::uint32_t node,
                                     const char* who) const {
  // Node indices are ID-ordered, so the ID-sorted member list is sorted by
  // index too.
  const auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it == members_.end() || *it != node) {
    throw std::invalid_argument(std::string(who) + ": not a member");
  }
  return static_cast<std::uint32_t>(it - members_.begin());
}

ZoneTree::Zone ZoneTree::zone(std::uint32_t node) const {
  return zones_at(checked_slot(node, "ZoneTree::zone"))[0];
}

std::vector<ZoneTree::Zone> ZoneTree::zones_of(std::uint32_t node) const {
  const auto zones = zones_at(checked_slot(node, "ZoneTree::zones_of"));
  return {zones.begin(), zones.end()};
}

int ZoneTree::match_len(std::uint32_t node, NodeId key) const {
  return match_at(checked_slot(node, "ZoneTree::match_len"), key);
}

std::uint32_t ZoneTree::owner_of(NodeId point) const {
  std::size_t cur = 0;
  for (int depth = 0; trie_[cur].child[0] >= 0; ++depth) {
    cur = static_cast<std::size_t>(trie_[cur].child[bit_at(point, depth,
                                                            bits_)]);
  }
  return trie_[cur].owner;
}

void ZoneTree::collect_leaf_owners(std::int32_t trie_node,
                                   std::vector<std::uint32_t>& out) const {
  const TrieNode& t = trie_[static_cast<std::size_t>(trie_node)];
  if (t.child[0] < 0) {
    out.push_back(t.owner);
    return;
  }
  collect_leaf_owners(t.child[0], out);
  collect_leaf_owners(t.child[1], out);
}

void ZoneTree::block_owners(NodeId prefix, int len,
                            std::vector<std::uint32_t>& out) const {
  // Descend along `prefix`; stopping early at a leaf means one larger zone
  // covers the whole block.
  std::int32_t cur = 0;
  for (int depth = 0;
       depth < len && trie_[static_cast<std::size_t>(cur)].child[0] >= 0;
       ++depth) {
    cur = trie_[static_cast<std::size_t>(cur)].child[bit_at(prefix, depth,
                                                            bits_)];
  }
  collect_leaf_owners(cur, out);
}

void ZoneTree::face_neighbors(std::uint32_t node, int pos,
                              std::vector<std::uint32_t>& out) const {
  const Zone z = zone(node);
  if (pos < 0 || pos >= z.len) {
    throw std::out_of_range("ZoneTree::face_neighbors: bad face position");
  }
  block_owners(z.prefix ^ (NodeId{1} << (bits_ - 1 - pos)), z.len, out);
}

std::vector<std::uint32_t> ZoneTree::neighbors(std::uint32_t node) const {
  std::vector<std::uint32_t> out;
  for (const Zone& z : zones_at(checked_slot(node, "ZoneTree::neighbors"))) {
    for (int pos = 0; pos < z.len; ++pos) {
      block_owners(z.prefix ^ (NodeId{1} << (bits_ - 1 - pos)), z.len, out);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), node), out.end());
  return out;
}

CanNetwork build_can(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.can_ms");
  const RingView ring = net.ring();
  ZoneTree tree(net, ring.members());
  LinkTable links = LinkTable::build(
      net.ids(), [&](NodeIndex m, std::vector<NodeIndex>& row) {
        const auto neighbors = tree.neighbors(m);
        row.insert(row.end(), neighbors.begin(), neighbors.end());
      });
  return CanNetwork{std::move(tree), std::move(links)};
}

namespace {

/// Throws unless `tree` partitions all of `net`'s nodes, so that a node's
/// slot is its index.
void require_whole_network(const OverlayNetwork& net, const ZoneTree& tree,
                           const char* who) {
  if (tree.member_count() != net.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": zone tree must cover every node");
  }
}

/// The one CAN walk behind CanRouter's plain (NoFaults) and faulty
/// (Faults) overloads: bit-fixing towards the key's owner, or under Faults
/// its live takeover when the owner is dead. Under Faults it skips dead,
/// banned and visited neighbors, sidesteps through the live-face fallback,
/// and retries dropped forwards; the scratch's `visited` is then the
/// walk's cycle guard.
template <typename FaultPolicy, typename Recorder>
ResilientProbe can_walk(const OverlayNetwork& net, const ZoneTree& tree,
                        const LinkTable& links, int max_hops,
                        NodeIndex from, NodeId key, const FaultPolicy& faults,
                        Recorder&& record) {
  constexpr bool kFaults = FaultPolicy::kActive;
  const IdSpace& space = net.space();
  NodeIndex target = tree.owner_of(key);
  if constexpr (kFaults) {
    if (faults.dead.dead(target)) {
      target = detail::live_xor_closest(net, net.ring().members(), key,
                                        faults.dead);
    }
    faults.scratch.visited.clear();
  }
  ResilientProbe p{from, 0, false, 0, 0};
  const auto banned = [&](NodeIndex nb) {
    if constexpr (kFaults) return faults.banned_node(nb);
    return false;
  };
  const auto usable = [&](NodeIndex nb) {
    if constexpr (kFaults) {
      return !faults.dead.dead(nb) && !banned(nb) &&
             std::ranges::find(faults.scratch.visited, nb) ==
                 faults.scratch.visited.end();
    }
    return true;
  };
  for (int step = 0; step < max_hops; ++step) {
    const NodeIndex current = p.terminal;
    if (current == target) {
      p.ok = true;
      return p;
    }
    const int cur_match = tree.match_at(current, key);
    const auto row = links.neighbors(current);
    int attempts = 0;
    if constexpr (kFaults) {
      faults.scratch.banned.clear();
      attempts = kRetryBudget;
    }
    for (;;) {  // per-hop retry ladder
      // The plain bit-fixing scan: the first neighbor with the longest
      // prefix match beyond the current node's.
      NodeIndex best = current;
      int best_match = cur_match;
      for (const NodeIndex nb : row) {
        const int m = tree.match_at(nb, key);
        if (m > best_match && usable(nb)) {
          best_match = m;
          best = nb;
        }
      }
      // Final hop: the target itself (the key's zone may be a short
      // empty-sibling block owned by an adjacent node).
      if (best == current && !banned(target) &&
          std::ranges::find(row, target) != row.end()) {
        best = target;
      }
      bool via_fallback = false;
      if constexpr (kFaults) {
        if (best == current) {
          // Live-face fallback: an unvisited live neighbor strictly
          // XOR-closer to the key.
          std::uint64_t best_d = space.xor_distance(net.id(current), key);
          for (const NodeIndex nb : row) {
            const std::uint64_t d = space.xor_distance(net.id(nb), key);
            if (d < best_d && usable(nb)) {
              best_d = d;
              best = nb;
            }
          }
          via_fallback = best != current;
        }
      }
      if (best == current) return p;  // stuck
      if constexpr (kFaults) {
        if (faults.drops.drop()) {
          faults.scratch.banned.push_back(best);
          ++p.retries;
          if (--attempts <= 0) return p;  // lost
          continue;
        }
        p.fallback_hops += via_fallback;
        faults.scratch.visited.push_back(best);
      }
      p.terminal = best;
      ++p.hops;
      record(best);
      break;
    }
  }
  return p;  // hop guard exceeded: structurally broken table
}

}  // namespace

CanRouter::CanRouter(const OverlayNetwork& net, const ZoneTree& tree,
                     const LinkTable& links)
    : net_(&net),
      tree_(&tree),
      links_(&links),
      max_hops_(hop_guard(net)) {
  require_routable(net, links, "CanRouter");
  require_whole_network(net, tree, "CanRouter");
}

Route CanRouter::route(std::uint32_t from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  return r;
}

void CanRouter::route_into(std::uint32_t from, NodeId key, Route& out) const {
  out.path.assign(1, from);
  out.ok = can_walk(*net_, *tree_, *links_, max_hops_, from, key,
                    detail::NoFaults{}, detail::PathRecorder{&out.path})
               .ok;
}

RouteProbe CanRouter::probe(std::uint32_t from, NodeId key) const {
  return can_walk(*net_, *tree_, *links_, max_hops_, from, key,
                  detail::NoFaults{}, detail::NullRecorder{})
      .to_probe();
}

ResilientProbe CanRouter::route_into(std::uint32_t from, NodeId key,
                                     const FailureSet& dead, DropRoller& drops,
                                     FaultScratch& scratch, Route& out) const {
  out.path.assign(1, from);
  const ResilientProbe p = detail::with_faults(
      from, {dead, drops, scratch}, "CanRouter", [&](const auto& faults) {
        return can_walk(*net_, *tree_, *links_, max_hops_, from, key, faults,
                        detail::PathRecorder{&out.path});
      });
  out.ok = p.ok;
  return p;
}

ResilientProbe CanRouter::probe(std::uint32_t from, NodeId key,
                                const FailureSet& dead, DropRoller& drops,
                                FaultScratch& scratch) const {
  return detail::with_faults(
      from, {dead, drops, scratch}, "CanRouter", [&](const auto& faults) {
        return can_walk(*net_, *tree_, *links_, max_hops_, from, key, faults,
                        detail::NullRecorder{});
      });
}

StepResult CanRouter::step(std::uint32_t at, NodeId key,
                           std::span<NodeIndex> out) const {
  const NodeIndex owner = tree_->owner_of(key);
  if (at == owner) return {0, true, true};
  const int cur_match = tree_->match_at(at, key);
  const auto row = links_->neighbors(at);
  detail::TopK top(out.size());
  for (const NodeIndex nb : row) {
    const int m = tree_->match_at(nb, key);
    if (m > cur_match) top.push(static_cast<std::uint64_t>(64 - m), nb);
  }
  if (top.count == 0 && std::ranges::find(row, owner) != row.end()) {
    top.push(0, owner);
  }
  if (top.count == 0) return {0, true, false};  // stuck
  return {top.emit(out), false, false};
}

}  // namespace canon
