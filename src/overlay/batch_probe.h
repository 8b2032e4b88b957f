// Interleaved batch probe driver: the memory-level-parallelism engine
// behind every router's probe_batch (RingRouter, XorRouter, GroupRouter).
//
// Greedy DHT routing is a chain of dependent random accesses — each hop's
// CSR row address is known only after the previous row is scanned — so a
// single lookup cannot hide DRAM latency. A *batch* of lookups can: the
// driver keeps a window of W independent queries ("lanes") in flight and
// advances each by one greedy hop per round, in two passes:
//
//   fetch pass   — every lane reads its row bounds (prefetched at the end
//                  of the previous round) and issues prefetches for the
//                  row payload (inline NodeIds + target indices).
//   advance pass — every lane scans its now-arriving row, picks the same
//                  winner the scalar walk would, and prefetches the next
//                  node's row bounds.
//
// This is classic group prefetching (a static sibling of AMAC): by the
// time lane i's scan runs, its row has been streaming in while the other
// W-1 lanes were scanned, so one lane's cache miss overlaps the others'
// compute. Finished lanes retire their RouteProbe and refill from the
// remaining queries, keeping the window full until the batch drains.
//
// Determinism: prefetches are scheduling hints and every lane executes
// the scalar hop sequence unchanged, so out[i] is bit-identical to
// probe(queries[i]) at every width — the equivalence contract
// tests/batch_probe_test.cc pins for all families.
//
// Internal header. The Stepper supplies the metric-specific pieces — the
// ring and XOR families share detail::GreedyLane (overlay/greedy_kernel.h),
// the proximity families have GroupLane (canon/proximity.cc), which scans
// with the group walk's own order:
//
//   struct Stepper {
//     struct Lane { std::size_t query_index; ... };
//     void begin(Lane&, const Query&, std::size_t query_index) const;
//     void fetch(Lane&) const;    // read bounds, prefetch row payload
//     bool advance(Lane&, RouteProbe& out) const;  // one greedy hop;
//                                 // true = done, `out` is the result
//   };
#ifndef CANON_OVERLAY_BATCH_PROBE_H
#define CANON_OVERLAY_BATCH_PROBE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "overlay/routing.h"

namespace canon::detail {

/// Runs `queries` through `st` with a window of `width` lanes (clamped to
/// [1, kMaxProbeBatchWidth] and to the batch size). Writes one RouteProbe
/// per query, in query order.
template <typename Stepper>
void interleaved_probe_batch(std::span<const Query> queries,
                             std::span<RouteProbe> out, int width,
                             const Stepper& st) {
  using Lane = typename Stepper::Lane;
  const std::size_t n = queries.size();
  const std::size_t w = std::min(
      n, static_cast<std::size_t>(std::clamp(width, 1, kMaxProbeBatchWidth)));

  std::array<Lane, kMaxProbeBatchWidth> lanes;
  std::size_t next = 0;
  std::size_t active = 0;
  for (; active < w; ++active, ++next) {
    st.begin(lanes[active], queries[next], next);
  }
  while (active > 0) {
    for (std::size_t i = 0; i < active; ++i) st.fetch(lanes[i]);
    for (std::size_t i = 0; i < active;) {
      RouteProbe result;
      if (!st.advance(lanes[i], result)) {
        ++i;
        continue;
      }
      out[lanes[i].query_index] = result;
      if (next < n) {
        // Refill in place; the fresh lane fetches at the top of the next
        // round, so its begin() prefetches get a full round of cover.
        st.begin(lanes[i], queries[next], next);
        ++next;
        ++i;
      } else {
        // Batch drained: compact the window (order within the window is
        // irrelevant — lanes are independent and retire by query_index).
        lanes[i] = lanes[--active];
      }
    }
  }
}

/// The probe_batch shell every router shares: the scalar probe loop when
/// batching is off, else the interleaved driver over `st`'s lanes.
template <typename Router, typename Stepper>
void probe_batch_with(std::span<const Query> queries,
                      std::span<RouteProbe> out, const Router& router,
                      const Stepper& st) {
  if (queries.size() != out.size()) {
    throw std::invalid_argument("probe_batch: out.size() != queries.size()");
  }
  const int width = probe_batch_width();
  if (width <= 0) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out[i] = router.probe(queries[i].from, queries[i].key);
    }
    return;
  }
  interleaved_probe_batch(queries, out, width, st);
}

}  // namespace canon::detail

#endif  // CANON_OVERLAY_BATCH_PROBE_H
