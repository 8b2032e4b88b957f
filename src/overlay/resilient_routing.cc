#include "overlay/resilient_routing.h"

#include <stdexcept>
#include <string>

#include "overlay/greedy_kernel.h"

namespace canon {

namespace {

/// The resilient routers' shared body: the source check, then the
/// fault-free walk when nothing is injected (so the zero-fault route is
/// the plain router's, comparison for comparison) and the faulty walk
/// otherwise.
template <typename Metric, typename Recorder>
ResilientProbe resilient_walk(const Metric& metric, const LinkTable& links,
                              int max_hops, NodeIndex from, NodeId key,
                              const detail::Faults& faults, const char* who,
                              Recorder&& record) {
  if (faults.dead.dead(from)) {
    throw std::invalid_argument(std::string(who) + ": source is dead");
  }
  if (!faults.dead.any() && !faults.drops.active()) {
    return detail::greedy_walk(metric, links, max_hops, from, key,
                               detail::NoFaults{}, record);
  }
  return detail::greedy_walk(metric, links, max_hops, from, key, faults,
                             record);
}

void check_retry_budget(int retry_budget, const char* who) {
  if (retry_budget < 1) {
    throw std::invalid_argument(std::string(who) + ": retry budget < 1");
  }
}

}  // namespace

ResilientRingRouter::ResilientRingRouter(const OverlayNetwork& net,
                                         const LinkTable& links, int leaf_set,
                                         int retry_budget)
    : net_(&net),
      links_(&links),
      leaf_set_(leaf_set),
      retry_budget_(retry_budget),
      max_hops_(hop_guard(net)) {
  require_routable(net, links, "ResilientRingRouter");
  check_retry_budget(retry_budget, "ResilientRingRouter");
}

std::uint32_t ResilientRingRouter::live_responsible(
    NodeId key, const FailureSet& dead) const {
  return detail::RingMetric(*net_).live_terminal(key, dead);
}

void ResilientRingRouter::live_candidates(
    std::uint32_t m, const FailureSet& dead,
    std::vector<std::uint32_t>& out) const {
  detail::RingMetric(*net_).live_leaf_set(m, dead, leaf_set_, out);
}

ResilientProbe ResilientRingRouter::route_into(std::uint32_t from, NodeId key,
                                               const FailureSet& dead,
                                               DropRoller& drops,
                                               Scratch& scratch,
                                               Route& out) const {
  out.path.assign(1, from);
  const ResilientProbe p = resilient_walk(
      detail::RingMetric(*net_), *links_, max_hops_, from, key,
      {dead, drops, scratch.banned, &scratch.leaf, leaf_set_, retry_budget_},
      "ResilientRingRouter", detail::PathRecorder{&out.path});
  out.ok = p.ok;
  return p;
}

ResilientProbe ResilientRingRouter::probe(std::uint32_t from, NodeId key,
                                          const FailureSet& dead,
                                          DropRoller& drops,
                                          Scratch& scratch) const {
  return resilient_walk(
      detail::RingMetric(*net_), *links_, max_hops_, from, key,
      {dead, drops, scratch.banned, &scratch.leaf, leaf_set_, retry_budget_},
      "ResilientRingRouter", detail::NullRecorder{});
}

Route ResilientRingRouter::route(std::uint32_t from, NodeId key,
                                 const FailureSet& dead) const {
  Route r;
  Scratch scratch;
  DropRoller drops;
  route_into(from, key, dead, drops, scratch, r);
  return r;
}

ResilientXorRouter::ResilientXorRouter(const OverlayNetwork& net,
                                       const LinkTable& links,
                                       int retry_budget)
    : net_(&net),
      links_(&links),
      retry_budget_(retry_budget),
      max_hops_(hop_guard(net)) {
  require_routable(net, links, "ResilientXorRouter");
  check_retry_budget(retry_budget, "ResilientXorRouter");
}

std::uint32_t ResilientXorRouter::live_closest(NodeId key,
                                               const FailureSet& dead) const {
  return detail::XorMetric(*net_).live_terminal(key, dead);
}

ResilientProbe ResilientXorRouter::route_into(std::uint32_t from, NodeId key,
                                              const FailureSet& dead,
                                              DropRoller& drops,
                                              Scratch& scratch,
                                              Route& out) const {
  out.path.assign(1, from);
  const ResilientProbe p = resilient_walk(
      detail::XorMetric(*net_), *links_, max_hops_, from, key,
      {dead, drops, scratch.banned, nullptr, 0, retry_budget_},
      "ResilientXorRouter", detail::PathRecorder{&out.path});
  out.ok = p.ok;
  return p;
}

ResilientProbe ResilientXorRouter::probe(std::uint32_t from, NodeId key,
                                         const FailureSet& dead,
                                         DropRoller& drops,
                                         Scratch& scratch) const {
  return resilient_walk(detail::XorMetric(*net_), *links_, max_hops_, from,
                        key,
                        {dead, drops, scratch.banned, nullptr, 0,
                         retry_budget_},
                        "ResilientXorRouter", detail::NullRecorder{});
}

}  // namespace canon
