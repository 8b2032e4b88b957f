#include "dht/kademlia.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>
#include <stdexcept>

#include "dht/xor_util.h"

namespace canon {

namespace {

std::uint64_t bucket_top(const IdSpace& space, int k) {
  return k + 1 >= space.bits() ? (space.mask() + (space.bits() == 64 ? 0 : 1))
                               : (std::uint64_t{1} << (k + 1));
}

/// Picks a member from the bucket {x : xor(m, x) in [2^k, hi)}.
/// The bucket decomposes as the XOR ball of radius hi - 2^k around
/// center = m ^ 2^k (every bucket element has bit k flipped).
std::uint32_t pick_in_bucket(const OverlayNetwork& net, const RingView& ring,
                             NodeId m_id, int k, std::uint64_t hi,
                             BucketChoice choice, Rng* rng) {
  const IdSpace& space = net.space();
  const std::uint64_t lo = std::uint64_t{1} << k;
  if (hi <= lo) return RingView::kNone;
  const NodeId center = space.wrap(m_id ^ lo);
  const std::uint64_t radius = hi - lo;  // ball around `center`
  const auto ranges = xor_ball_ranges(center, radius, space);

  if (choice == BucketChoice::kClosest) {
    std::uint32_t best = RingView::kNone;
    std::uint64_t best_d = kNoLimit;
    for (const IdRange& r : ranges) {
      const std::uint32_t c = xor_closest_in_range(ring, r.lo, r.size, m_id);
      if (c == RingView::kNone) continue;
      const std::uint64_t d = space.xor_distance(m_id, net.id(c));
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    return best;
  }

  // Uniform choice across the union of ranges (ranges are disjoint).
  std::size_t total = 0;
  for (const IdRange& r : ranges) total += ring.count_in(r.lo, r.size);
  if (total == 0) return RingView::kNone;
  if (rng == nullptr) {
    throw std::logic_error("pick_in_bucket: kRandom requires an Rng");
  }
  std::size_t pick = rng->uniform(total);
  for (const IdRange& r : ranges) {
    const std::size_t c = ring.count_in(r.lo, r.size);
    if (pick < c) return ring.select_in(r.lo, r.size, pick);
    pick -= c;
  }
  return RingView::kNone;  // unreachable
}

}  // namespace

std::uint64_t bucket_closest_distance(const OverlayNetwork& net,
                                      const RingView& ring, NodeId m_id,
                                      int k) {
  const std::uint32_t c =
      pick_in_bucket(net, ring, m_id, k, bucket_top(net.space(), k),
                     BucketChoice::kClosest, nullptr);
  if (c == RingView::kNone) return kNoLimit;
  return net.space().xor_distance(m_id, net.id(c));
}

std::uint64_t closest_xor_distance(const OverlayNetwork& net,
                                   const RingView& ring, std::uint32_t m) {
  // The XOR-closest member lies in the lowest non-empty bucket.
  for (int k = 0; k < net.space().bits(); ++k) {
    const std::uint64_t d = bucket_closest_distance(net, ring, net.id(m), k);
    if (d != kNoLimit) return d;
  }
  return kNoLimit;
}

void add_kademlia_links(const OverlayNetwork& net, const RingView& ring,
                        std::uint32_t m, const RingView* child,
                        BucketChoice choice, MergePolicy policy, Rng& rng,
                        std::vector<NodeIndex>& row, int replication) {
  if (replication < 1) {
    throw std::invalid_argument("add_kademlia_links: replication < 1");
  }
  const IdSpace& space = net.space();
  const NodeId m_id = net.id(m);
  for (int k = 0; k < space.bits(); ++k) {
    std::uint64_t hi = bucket_top(space, k);
    if (child != nullptr) {
      const std::uint64_t child_d =
          bucket_closest_distance(net, *child, m_id, k);
      if (policy == MergePolicy::kFrugal) {
        // The child ring already covers this bucket: no merge link.
        if (child_d != kNoLimit) continue;
      } else {
        // Literal rule: candidates must be strictly closer than every
        // child-ring node within this bucket.
        hi = std::min(hi, child_d);
      }
    }
    const std::uint32_t v =
        pick_in_bucket(net, ring, m_id, k, hi, choice, &rng);
    if (v == RingView::kNone || v == m) continue;
    row.push_back(v);
    // Extra bucket entries for resilience (LinkTable::build collapses
    // repeats, so small buckets simply fill up).
    for (int extra = 1; extra < replication; ++extra) {
      const std::uint32_t w =
          pick_in_bucket(net, ring, m_id, k, hi, BucketChoice::kRandom, &rng);
      if (w != RingView::kNone && w != m) row.push_back(w);
    }
  }
}

LinkTable build_kademlia(const OverlayNetwork& net, BucketChoice choice,
                         Rng& rng, int replication) {
  telemetry::ScopedTimer timer("build.kademlia_ms");
  const RingView ring = net.ring();
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(
      net.ids(), [&](NodeIndex m, std::vector<NodeIndex>& row) {
        Rng node_rng = base.fork(m);
        add_kademlia_links(net, ring, m, /*child=*/nullptr, choice,
                           MergePolicy::kFrugal, node_rng, row, replication);
      });
}

}  // namespace canon
