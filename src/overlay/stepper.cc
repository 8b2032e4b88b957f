#include "overlay/stepper.h"

#include "overlay/greedy_kernel.h"

namespace canon {

namespace {

/// Ranks a node's progressing neighbors by the greedy kernel's rank, so
/// candidate 0 is the first-best hop argmin_rank picks (TopK keeps
/// insertion order on ties) and the rest are the same scan's runners-up.
template <typename Metric>
Stepper make_greedy_stepper(const OverlayNetwork& net,
                            const LinkTable& links) {
  // Two pointers keep the closure inside std::function's local storage.
  return [n = &net, l = &links](NodeIndex at, NodeId key, std::uint64_t&,
                                std::span<NodeIndex> out) -> StepResult {
    const Metric metric(*n);
    const std::uint64_t remaining = metric.rank(n->id(at), key);
    detail::TopK top(out.size());
    for (const NodeIndex nb : l->neighbors(at)) {
      const std::uint64_t r = metric.rank(n->id(nb), key);
      if (r < remaining) top.push(r, nb);
    }
    if (top.count == 0) return {0, true, at == metric.terminal(key)};
    return {top.emit(out), false, false};
  };
}

}  // namespace

Stepper make_ring_stepper(const OverlayNetwork& net, const LinkTable& links) {
  return make_greedy_stepper<detail::RingMetric>(net, links);
}

Stepper make_xor_stepper(const OverlayNetwork& net, const LinkTable& links) {
  return make_greedy_stepper<detail::XorMetric>(net, links);
}

}  // namespace canon
