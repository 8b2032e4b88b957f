#include "canon/cancan.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/parallel.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "overlay/greedy_kernel.h"
#include "telemetry/scoped_timer.h"

namespace canon {

CanCanZones::CanCanZones(const OverlayNetwork& net)
    : net_(&net),
      stride_(static_cast<std::size_t>(net.domains().max_depth()) + 1),
      levels_(net.size() * stride_) {
  const DomainTree& dom = net.domains();
  trees_.resize(static_cast<std::size_t>(dom.domain_count()));
  // Per-domain zone tries are independent, and every (node, level) entry
  // belongs to exactly one domain; one shard per few domains.
  parallel_for(static_cast<std::size_t>(dom.domain_count()), 4,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t d = begin; d < end; ++d) {
                   const Domain& domain = dom.domain(static_cast<int>(d));
                   const auto& members = domain.members;
                   trees_[d] = std::make_unique<ZoneTree>(
                       net, std::span<const std::uint32_t>{members.data(),
                                                           members.size()});
                   for (std::size_t slot = 0; slot < members.size(); ++slot) {
                     levels_[members[slot] * stride_ +
                             static_cast<std::size_t>(domain.depth)] = {
                         static_cast<std::int32_t>(d),
                         static_cast<std::uint32_t>(slot)};
                   }
                 }
               });
}

std::uint32_t CanCanZones::responsible(NodeId key) const {
  return tree(net_->domains().root()).owner_of(key);
}

CanCanNetwork::CanCanNetwork(const OverlayNetwork& net)
    : CanCanNetwork(net, telemetry::ScopedTimer("build.cancan_ms")) {}

CanCanNetwork::CanCanNetwork(const OverlayNetwork& net,
                             const telemetry::ScopedTimer&)
    : zones_(net), links_(net.size()) {
  const DomainTree& dom = net.domains();
  const auto add_node_links = [&](std::uint32_t m,
                                  std::vector<std::uint32_t>& face) {
    const auto& chain = dom.domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    const auto primary_len = [&](int level) {
      const int d = chain[static_cast<std::size_t>(level)];
      return tree(d).zones_at(zones_.slot_in(m, d, level))[0].len;
    };
    // Leaf domain: every CAN edge.
    for (const std::uint32_t v :
         tree(chain[static_cast<std::size_t>(leaf)]).neighbors(m)) {
      links_.add(m, v);
    }
    // Higher levels: a face edge survives the merge only if it is shorter
    // than the shortest lower-level link *for that face* (the per-bucket
    // reading of condition (b), as in Kandy). On the virtual hypercube a
    // face at prefix position `pos` spans 2^(N-1-pos); the lower zone
    // covers exactly the faces at positions < len(lower zone), so deeper
    // faces are always kept, and a shallower face survives only when the
    // lower domain has no member at all across it (its ID bucket is empty).
    const int bits = net.space().bits();
    for (int level = leaf - 1; level >= 0; --level) {
      const RingView child_ring =
          net.domain_ring(chain[static_cast<std::size_t>(level + 1)]);
      const int lower_len = primary_len(level + 1);
      const ZoneTree& t = tree(chain[static_cast<std::size_t>(level)]);
      const int len = primary_len(level);
      for (int pos = 0; pos < len; ++pos) {
        if (pos < lower_len) {
          // Keep only if the child domain is empty across this face.
          const std::uint64_t child_d = bucket_closest_distance(
              net, child_ring, net.id(m), bits - 1 - pos);
          if (child_d != kNoLimit) continue;
        }
        face.clear();
        t.face_neighbors(m, pos, face);
        for (const std::uint32_t v : face) links_.add(m, v);
      }
    }
  };
  parallel_for(net.size(), kNodeGrain, [&](std::size_t begin,
                                           std::size_t end) {
    std::vector<std::uint32_t> face;  // per-shard scratch
    for (std::size_t m = begin; m < end; ++m) {
      add_node_links(static_cast<std::uint32_t>(m), face);
    }
  });
  links_.finalize(net.ids());
}

namespace {

/// The Can-Can hop budget for a `bits`-bit space.
constexpr int max_hops_for(int bits) { return 8 * bits + 16; }

/// The walk's cycle guard: every node entered so far. A walk enters at
/// most 1 + its hop budget nodes, so the guard lives on the stack.
class Visited {
 public:
  void push(NodeIndex node) { nodes_[size_++] = node; }
  bool contains(NodeIndex node) const {
    return std::find(nodes_.begin(), nodes_.begin() + size_, node) !=
           nodes_.begin() + size_;
  }

 private:
  std::array<NodeIndex, max_hops_for(64) + 1> nodes_;
  std::ptrdiff_t size_ = 0;
};

/// The stage owner of `key` in domain `d`, or under faults its live
/// takeover: the live member of `d` XOR-closest to the key.
template <typename FaultPolicy>
NodeIndex stage_target(const CanCanZones& zones, int d, NodeId key,
                       const FaultPolicy& faults) {
  const NodeIndex structural = zones.tree(d).owner_of(key);
  if constexpr (FaultPolicy::kActive) {
    if (faults.dead.dead(structural)) {
      return detail::live_xor_closest(
          zones.net(), zones.net().domains().domain(d).members, key,
          faults.dead);
    }
  }
  return structural;
}

/// The one Can-Can walk behind CanCanRouter's plain (NoFaults) and faulty
/// (Faults) overloads: stage by stage, greedy prefix-match
/// growth within the stage domain's partition until the stage target,
/// then a lift to the parent domain. Under Faults it skips dead and banned
/// neighbors and retries dropped forwards. fallback_hops counts hops taken
/// by the XOR fallback.
template <typename FaultPolicy, typename Recorder>
ResilientProbe cancan_walk(const CanCanZones& zones, const LinkTable& links,
                           int max_hops, NodeIndex from, NodeId key,
                           const FaultPolicy& faults, Recorder&& record) {
  constexpr bool kFaults = FaultPolicy::kActive;
  const OverlayNetwork& net = zones.net();
  const IdSpace& space = net.space();
  const DomainTree& dom = net.domains();
  // Stage = the domain whose partition the message is currently finishing,
  // starting at the source's leaf domain and lifting toward the root.
  int stage = dom.domain_chain(from).back();
  int depth = dom.domain(stage).depth;
  const ZoneTree* tree = &zones.tree(stage);
  NodeIndex target = stage_target(zones, stage, key, faults);
  // The XOR fallback can decrease the prefix match, so guard against
  // revisiting a node (which would mean a routing cycle).
  Visited visited;
  visited.push(from);
  const auto banned = [&](NodeIndex nb) {
    if constexpr (kFaults) return faults.banned_node(nb);
    return false;
  };
  const auto usable = [&](NodeIndex nb) {
    if (visited.contains(nb) || banned(nb)) return false;
    if constexpr (kFaults) return !faults.dead.dead(nb);
    return true;
  };

  ResilientProbe p{from, 0, false, 0, 0};
  for (int step = 0; step < max_hops; ++step) {
    const NodeIndex current = p.terminal;
    if (current == target) {
      const int parent = dom.domain(stage).parent;
      if (parent < 0) {
        p.ok = true;  // finished the root partition
        return p;
      }
      stage = parent;
      depth = dom.domain(stage).depth;
      tree = &zones.tree(stage);
      target = stage_target(zones, stage, key, faults);
      continue;  // lift the stage without consuming a hop
    }
    const int cur_match =
        tree->match_at(zones.slot_in(current, stage, depth), key);
    const auto row = links.neighbors(current);
    int attempts = 0;
    if constexpr (kFaults) {
      faults.scratch.banned.clear();
      attempts = kRetryBudget;
    }
    for (;;) {  // per-hop retry ladder
      NodeIndex best = current;
      int best_match = cur_match;
      for (const NodeIndex nb : row) {
        const std::uint32_t slot = zones.slot_in(nb, stage, depth);
        if (slot == ZoneTree::kNoSlot) continue;
        const int m = tree->match_at(slot, key);
        if (m > best_match && usable(nb)) {
          best_match = m;
          best = nb;
        }
      }
      // The key's stage zone may be a short empty-sibling block: accept a
      // neighbor that is the stage target outright.
      if (best == current && !visited.contains(target) && !banned(target) &&
          std::ranges::find(row, target) != row.end()) {
        best = target;
      }
      bool via_fallback = false;
      if (best == current) {
        // Fallback for faces the merge filter removed (and, under faults,
        // for dead ones): any stage-domain neighbor strictly closer to the
        // key in XOR distance.
        std::uint64_t best_d = space.xor_distance(net.id(current), key);
        for (const NodeIndex nb : row) {
          if (zones.slot_in(nb, stage, depth) == ZoneTree::kNoSlot) continue;
          const std::uint64_t d = space.xor_distance(net.id(nb), key);
          if (d < best_d && usable(nb)) {
            best_d = d;
            best = nb;
          }
        }
        via_fallback = best != current;
      }
      if (best == current) return p;  // stuck
      if constexpr (kFaults) {
        if (faults.drops.drop()) {
          faults.scratch.banned.push_back(best);
          ++p.retries;
          if (--attempts <= 0) return p;  // lost
          continue;
        }
      }
      p.fallback_hops += via_fallback;
      p.terminal = best;
      ++p.hops;
      record(best);
      visited.push(best);
      break;
    }
  }
  return p;  // hop guard exceeded
}

}  // namespace

CanCanRouter::CanCanRouter(const CanCanZones& zones, const LinkTable& links)
    : zones_(&zones),
      links_(&links),
      max_hops_(max_hops_for(zones.net().space().bits())) {
  require_routable(zones.net(), links, "CanCanRouter");
}

Route CanCanRouter::route(std::uint32_t from, NodeId key) const {
  Route r;
  r.path.push_back(from);
  const ResilientProbe p =
      cancan_walk(*zones_, *links_, max_hops_, from, key, detail::NoFaults{},
                  detail::PathRecorder{&r.path});
  r.ok = p.ok;
  if (!p.ok) stuck_.fetch_add(1, std::memory_order_relaxed);
  fallback_.fetch_add(static_cast<std::size_t>(p.fallback_hops),
                      std::memory_order_relaxed);
  return r;
}

void CanCanRouter::route_into(std::uint32_t from, NodeId key,
                              Route& out) const {
  out.path.clear();
  out.path.push_back(from);
  out.ok = cancan_walk(*zones_, *links_, max_hops_, from, key,
                       detail::NoFaults{}, detail::PathRecorder{&out.path})
               .ok;
}

RouteProbe CanCanRouter::probe(std::uint32_t from, NodeId key) const {
  return cancan_walk(*zones_, *links_, max_hops_, from, key,
                     detail::NoFaults{}, detail::NullRecorder{})
      .to_probe();
}

ResilientProbe CanCanRouter::route_into(std::uint32_t from, NodeId key,
                                        const FailureSet& dead,
                                        DropRoller& drops,
                                        FaultScratch& scratch,
                                        Route& out) const {
  out.path.assign(1, from);
  const ResilientProbe p = detail::with_faults(
      from, {dead, drops, scratch}, "CanCanRouter", [&](const auto& faults) {
        return cancan_walk(*zones_, *links_, max_hops_, from, key, faults,
                           detail::PathRecorder{&out.path});
      });
  out.ok = p.ok;
  return p;
}

ResilientProbe CanCanRouter::probe(std::uint32_t from, NodeId key,
                                   const FailureSet& dead, DropRoller& drops,
                                   FaultScratch& scratch) const {
  return detail::with_faults(
      from, {dead, drops, scratch}, "CanCanRouter", [&](const auto& faults) {
        return cancan_walk(*zones_, *links_, max_hops_, from, key, faults,
                           detail::NullRecorder{});
      });
}

StepResult CanCanRouter::step(std::uint32_t at, NodeId key,
                              std::uint64_t& state,
                              std::span<NodeIndex> out) const {
  const OverlayNetwork& net = zones_->net();
  const IdSpace& space = net.space();
  const DomainTree& dom = net.domains();
  int stage = state == 0 ? static_cast<int>(dom.domain_chain(at).back())
                         : static_cast<int>((state & 0xFFFFFFFFu) - 1);
  const std::uint32_t prev =
      state == 0 ? at : static_cast<std::uint32_t>((state >> 32) - 1);
  // Lift the stage toward the root while this node owns the key's zone
  // in the stage partition; lifting consumes no hop.
  NodeIndex owner;
  while ((owner = zones_->tree(stage).owner_of(key)) == at) {
    if (dom.domain(stage).parent < 0) return {0, true, true};
    stage = dom.domain(stage).parent;
  }
  const int depth = dom.domain(stage).depth;
  const ZoneTree& tree = zones_->tree(stage);
  const std::uint32_t at_slot = zones_->slot_in(at, stage, depth);
  if (at_slot == ZoneTree::kNoSlot) {
    throw std::invalid_argument("CanCanRouter::step: node outside its stage");
  }
  const int cur_match = tree.match_at(at_slot, key);
  const auto row = links_->neighbors(at);
  detail::TopK top(out.size());
  for (const NodeIndex nb : row) {
    const std::uint32_t slot = zones_->slot_in(nb, stage, depth);
    if (slot == ZoneTree::kNoSlot || nb == prev) continue;
    const int m = tree.match_at(slot, key);
    if (m > cur_match) top.push(static_cast<std::uint64_t>(64 - m), nb);
  }
  // Empty-sibling fallback: the stage owner as a neighbor.
  if (top.count == 0 && owner != prev &&
      std::ranges::find(row, owner) != row.end()) {
    top.push(0, owner);
  }
  if (top.count == 0) {
    // Faces the merge filter removed: stage neighbors strictly closer to
    // the key in XOR distance.
    const std::uint64_t cur_d = space.xor_distance(net.id(at), key);
    for (const NodeIndex nb : row) {
      if (nb == prev ||
          zones_->slot_in(nb, stage, depth) == ZoneTree::kNoSlot) {
        continue;
      }
      const std::uint64_t d = space.xor_distance(net.id(nb), key);
      if (d < cur_d) top.push(d, nb);
    }
  }
  if (top.count == 0) return {0, true, false};  // stuck
  state = (static_cast<std::uint64_t>(at) + 1) << 32 |
          static_cast<std::uint64_t>(stage + 1);
  return {top.emit(out), false, false};
}

}  // namespace canon
