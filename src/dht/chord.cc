#include "dht/chord.h"

#include "telemetry/scoped_timer.h"

namespace canon {

void add_chord_fingers(const OverlayNetwork& net, const RingView& ring,
                       std::uint32_t m, std::uint64_t limit,
                       std::vector<NodeIndex>& row) {
  const IdSpace& space = net.space();
  const NodeId mid = net.id(m);
  for (int k = 0; k < space.bits(); ++k) {
    const std::uint64_t dist = std::uint64_t{1} << k;
    if (dist >= limit) break;  // all further fingers are at least this far
    const std::uint32_t v = ring.first_at_distance(mid, dist);
    if (v == RingView::kNone || v == m) continue;
    if (space.ring_distance(mid, net.id(v)) < limit) row.push_back(v);
  }
}

LinkTable build_chord(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.chord_ms");
  const RingView ring = net.ring();
  return LinkTable::build(
      net.ids(), [&](NodeIndex m, std::vector<NodeIndex>& row) {
        add_chord_fingers(net, ring, m, kNoLimit, row);
      });
}

}  // namespace canon
