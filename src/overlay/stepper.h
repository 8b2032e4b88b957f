// Resumable one-hop routing steppers.
//
// The routers in overlay/routing.h (and the CAN/Can-Can/group routers in
// their own layers) walk a whole route in one call. The message
// simulator needs the same decision *one hop at a time*, interleaved
// across thousands of in-flight lookups: given the node a lookup currently
// sits at, rank the next-hop candidates best-first and say whether the
// node is terminal. A Stepper is exactly that — the per-hop body of a
// routing core with the loop stripped off.
//
// Contract:
//
// * step(at, key, state, out) fills `out` with up to out.size() candidate
//   next hops, best first, and returns how many it wrote plus the
//   done/ok verdict. Candidate 0 is the hop the family's greedy route()
//   would take, so driving a stepper with "always take candidate 0" walks
//   the exact same path hop-for-hop (the α=1 equivalence the simulator
//   tests pin). Later candidates are the runners-up of the same scan, for
//   α-parallel speculative probes.
// * done=true means the lookup terminates at `at` (count is then 0):
//   ok tells whether `at` is the correct destination. count==0 with
//   done=false never happens — a node with no way forward is terminal —
//   except for an empty `out`, which asks for no candidates: the stepper
//   then writes nothing and returns count 0.
// * `state` is a small per-lookup word threaded through the lookup's
//   steps. 0 is the start value for every family; most families ignore it
//   (the ranking is a pure function of (at, key)). Can-Can uses it for
//   its stage domain and an immediate-backtrack guard, so callers running
//   speculative probes must pass each probe a *copy* and adopt the
//   winner's copy when the frontier advances.
// * Steppers are immutable once built and safe to call concurrently from
//   one thread per lookup interleaving — they touch no mutable state
//   beyond the caller's `state` word.
//
// make_ring_stepper and make_xor_stepper (the seven ring families and the
// two XOR families) rank candidates by the greedy kernel's rank
// (overlay/greedy_kernel.h) — the same rank and tie rule as every other
// path of those families. The CAN/Can-Can/group steppers own heavier
// auxiliary structures and are built via the family registry's
// make_stepper hook (overlay/family_registry.h); they call CanRouter::step,
// CanCanRouter::step and GroupRouter::step, which share their walks' scans.
#ifndef CANON_OVERLAY_STEPPER_H
#define CANON_OVERLAY_STEPPER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/ids.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Verdict of one resumable routing step. See the file comment.
struct StepResult {
  int count = 0;     ///< candidates written, ranked best-first
  bool done = false; ///< the lookup terminates at the queried node
  bool ok = false;   ///< terminal node is the correct destination
};

/// Widest candidate ranking any caller asks for: α-parallel lookups fan
/// out to at most this many speculative probes per step.
inline constexpr int kMaxStepCandidates = 8;

/// The resumable one-hop decision. See the file comment for the contract.
using Stepper = std::function<StepResult(
    NodeIndex at, NodeId key, std::uint64_t& state,
    std::span<NodeIndex> out)>;

/// Greedy-clockwise stepper (Chord/Crescendo/Symphony/... — every ring
/// family): candidates are the neighbors that advance clockwise without
/// overshooting the key, ranked by distance covered; terminal ok iff the
/// node is the key's responsible node. Candidate 0 reproduces
/// RingRouter's choice (first-best on ties). `net` and `links` are
/// borrowed and must outlive the stepper.
Stepper make_ring_stepper(const OverlayNetwork& net, const LinkTable& links);

/// Greedy XOR stepper (Kademlia/Kandy): candidates strictly reduce the
/// XOR distance to the key, ranked closest-first; terminal ok iff the node
/// is the global XOR-closest. Candidate 0 reproduces XorRouter's choice.
Stepper make_xor_stepper(const OverlayNetwork& net, const LinkTable& links);

namespace detail {

/// Small fixed-capacity best-K ranking: keeps the K smallest ranks seen
/// (by the rank type's `<`), stable on ties (first inserted stays first),
/// so candidate 0 always matches the strict-inequality running argbest of
/// the routers.
template <typename Rank = std::uint64_t>
struct TopK {
  Rank rank[kMaxStepCandidates];
  NodeIndex node[kMaxStepCandidates];
  int count = 0;
  int cap;

  explicit TopK(std::size_t capacity)
      : cap(static_cast<int>(std::min<std::size_t>(
            capacity, static_cast<std::size_t>(kMaxStepCandidates)))) {}

  /// Inserts (r, v) keeping ranks ascending; equal ranks keep insertion
  /// order.
  void push(const Rank& r, NodeIndex v) {
    if (cap == 0) return;
    int i = count < cap ? count : cap - 1;
    if (count < cap) {
      ++count;
    } else if (!(r < rank[cap - 1])) {
      return;
    }
    while (i > 0 && r < rank[i - 1]) {
      rank[i] = rank[i - 1];
      node[i] = node[i - 1];
      --i;
    }
    rank[i] = r;
    node[i] = v;
  }

  int emit(std::span<NodeIndex> out) const {
    const int n = count < static_cast<int>(out.size())
                      ? count
                      : static_cast<int>(out.size());
    for (int i = 0; i < n; ++i) out[i] = node[i];
    return n;
  }
};

}  // namespace detail

}  // namespace canon

#endif  // CANON_OVERLAY_STEPPER_H
