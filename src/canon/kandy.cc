#include "canon/kandy.h"

#include "telemetry/scoped_timer.h"

#include "dht/chord.h"

namespace canon {

void add_kandy_links(const OverlayNetwork& net, std::uint32_t m,
                     BucketChoice choice, MergePolicy policy, Rng& rng,
                     std::vector<NodeIndex>& row) {
  const auto& chain = net.domains().domain_chain(m);
  const int leaf = static_cast<int>(chain.size()) - 1;
  add_kademlia_links(
      net, net.domain_ring(chain[static_cast<std::size_t>(leaf)]), m,
      /*child=*/nullptr, choice, policy, rng, row);
  for (int level = leaf - 1; level >= 0; --level) {
    const RingView child_ring =
        net.domain_ring(chain[static_cast<std::size_t>(level + 1)]);
    add_kademlia_links(
        net, net.domain_ring(chain[static_cast<std::size_t>(level)]), m,
        &child_ring, choice, policy, rng, row);
  }
}

LinkTable build_kandy(const OverlayNetwork& net, BucketChoice choice, Rng& rng,
                      MergePolicy policy) {
  telemetry::ScopedTimer timer("build.kandy_ms");
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(
      net.ids(), [&](NodeIndex m, std::vector<NodeIndex>& row) {
        Rng node_rng = base.fork(m);
        add_kandy_links(net, m, choice, policy, node_rng, row);
      });
}

}  // namespace canon
