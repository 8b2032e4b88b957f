#include "overlay/message_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "overlay/routing.h"
#include "telemetry/journal.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace canon {

MessageSimulator::MessageSimulator(const OverlayNetwork& net,
                                   const LinkTable& links, Stepper stepper,
                                   HopCost latency, MessageSimConfig config)
    : net_(&net),
      links_(&links),
      stepper_(stepper ? std::move(stepper) : make_ring_stepper(net, links)),
      latency_(std::move(latency)),
      config_(config),
      hop_guard_(hop_guard(net)),
      load_(net.size(), 0),
      busy_until_(net.size(), 0),
      max_depth_(net.size(), 0),
      dead_(net.size()),
      messages_counter_(telemetry::maybe_counter("message_sim.messages")),
      timeouts_counter_(telemetry::maybe_counter("message_sim.timeouts")),
      retries_counter_(telemetry::maybe_counter("message_sim.retries")),
      queue_hist_(telemetry::maybe_histogram("message_sim.queue_ms")) {
  require_routable(net, links, "MessageSimulator");
  if (config_.candidates < 1 || config_.candidates > kMaxStepCandidates) {
    throw std::invalid_argument(
        "MessageSimulator: candidates must be in [1, kMaxStepCandidates]");
  }
  if (config_.alpha < 1 || config_.alpha > config_.candidates) {
    throw std::invalid_argument(
        "MessageSimulator: alpha must be in [1, candidates]");
  }
  if (config_.inbox_capacity < 1) {
    throw std::invalid_argument(
        "MessageSimulator: inbox_capacity must be >= 1");
  }
  if (config_.service_ms <= 0 || config_.timeout_ms <= 0) {
    throw std::invalid_argument(
        "MessageSimulator: service_ms and timeout_ms must be > 0");
  }
  if (config_.backoff < 1.0 || config_.retry_budget < 1) {
    throw std::invalid_argument(
        "MessageSimulator: backoff must be >= 1 and retry_budget >= 1");
  }
}

void MessageSimulator::attach(const SimSinks& sinks) {
  sinks.validate();
  if (sinks.fault_plan != sinks_.fault_plan) {
    fault_schedule_.clear();
    next_fault_ = 0;
    rolling_drops_ = false;
    drop_p_ = 0;
    if (sinks.fault_plan) {
      const auto events = sinks.fault_plan->events();
      fault_schedule_.assign(events.begin(), events.end());
      std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                       [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                       });
      if (sinks.fault_plan->has_drops()) {
        rolling_drops_ = true;
        drop_p_ = sinks.fault_plan->drop_probability();
        drop_base_ = Rng(sinks.fault_plan->drop_seed());
      }
    }
  }
  if (sinks.trace != sinks_.trace && sinks.trace) {
    for (std::size_t i = 0; i < lookups_.size(); ++i) {
      if (!traced_[i] && lookups_[i].completed_ms < 0) {
        trace_ids_[i] =
            sinks.trace->begin_lookup(lookups_[i].from, lookups_[i].key);
        traced_[i] = true;
      }
    }
  }
  if (sinks.timeseries != sinks_.timeseries && sinks.timeseries) {
    for (const LookupResult& lk : lookups_) {
      if (lk.completed_ms < 0) sinks.timeseries->lookup_issued(lk.issued_ms);
    }
  }
  sinks_ = sinks;
}

int MessageSimulator::submit(std::uint32_t from, NodeId key, double at_ms) {
  if (from >= net_->size()) {
    throw std::out_of_range("MessageSimulator::submit: bad node");
  }
  if (!std::isfinite(at_ms)) {
    throw std::invalid_argument("MessageSimulator::submit: at_ms not finite");
  }
  LookupResult result;
  result.from = from;
  result.key = key;
  result.issued_ms = at_ms;
  const int id = static_cast<int>(lookups_.size());
  lookups_.push_back(result);
  Lookup lk;
  lk.frontier = from;
  state_.push_back(lk);
  trace_ids_.push_back(
      sinks_.trace ? sinks_.trace->begin_lookup(from, key) : 0);
  traced_.push_back(sinks_.trace != nullptr);
  if (sinks_.timeseries) sinks_.timeseries->lookup_issued(at_ms);
  starts_.push_back({at_ms, next_seq_++, id});
  return id;
}

void MessageSimulator::push_event(double at_ms, std::uint64_t seq, Kind kind,
                                  std::int32_t lookup, std::int32_t cand,
                                  std::uint32_t stamp, NodeIndex target) {
  Event ev;
  ev.at_ms = at_ms;
  ev.seq = seq;
  ev.lookup = lookup;
  ev.stamp = stamp;
  ev.target = target;
  ev.cand = static_cast<std::uint8_t>(cand);
  ev.kind = kind;
  queue_.push(ev);
}

double MessageSimulator::link_ms(NodeIndex a, NodeIndex b) const {
  return latency_ ? latency_(a, b) : config_.default_hop_ms;
}

void MessageSimulator::advance_clock(double at_ms) {
  now_ = std::max(now_, at_ms);
  apply_faults_until(now_);
  maybe_snapshot(now_);
}

void MessageSimulator::apply_faults_until(double now) {
  while (next_fault_ < fault_schedule_.size() &&
         static_cast<double>(fault_schedule_[next_fault_].at) <= now) {
    const FaultEvent& fe = fault_schedule_[next_fault_++];
    if (fe.kind == FaultEvent::Kind::kCrash) {
      dead_.kill(fe.node);
      if (sinks_.journal) {
        sinks_.journal->crash(fe.node, net_->id(fe.node), fe.at);
      }
    } else {
      dead_.revive(fe.node);
      if (sinks_.journal) {
        sinks_.journal->revive(fe.node, net_->id(fe.node), fe.at);
      }
    }
    if (sinks_.timeseries) {
      sinks_.timeseries->live_nodes(static_cast<double>(fe.at),
                                    static_cast<double>(live_nodes()));
    }
  }
}

void MessageSimulator::maybe_snapshot(double now) {
  if (!sinks_.journal || sinks_.snapshot_top_k <= 0) return;
  while (static_cast<double>(snapshots_emitted_ + 1) *
             sinks_.snapshot_window_ms <=
         now) {
    ++snapshots_emitted_;
    const double t =
        static_cast<double>(snapshots_emitted_) * sinks_.snapshot_window_ms;
    sinks_.journal->load_snapshot(
        t, telemetry::top_loaded_nodes(
               load_, static_cast<std::size_t>(sinks_.snapshot_top_k)));
  }
}

double MessageSimulator::service(NodeIndex node, double at_ms) {
  if (dead_.any() && dead_.dead(node)) return -1;
  // Inbox depth derived from the pending-work backlog: the node drains one
  // message per service_ms, so backlog / service_ms messages sit ahead of
  // this arrival.
  const double backlog = busy_until_[node] - at_ms;
  const std::uint32_t ahead =
      backlog <= 0 ? 0
                   : static_cast<std::uint32_t>(
                         std::ceil(backlog / config_.service_ms - 1e-9));
  if (ahead >= static_cast<std::uint32_t>(config_.inbox_capacity)) {
    ++totals_.inbox_drops;
    return -1;
  }
  max_depth_[node] = std::max(max_depth_[node], ahead + 1);
  const double start = std::max(at_ms, busy_until_[node]);
  busy_until_[node] = start + config_.service_ms;
  ++load_[node];
  ++totals_.serviced;
  if (messages_counter_) messages_counter_->inc();
  if (queue_hist_) queue_hist_->record_ms(start - at_ms);
  if (sinks_.timeseries) sinks_.timeseries->message(at_ms, start - at_ms);
  return start;
}

void MessageSimulator::start_lookup(std::int32_t lookup, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  LookupResult& result = lookups_[static_cast<std::size_t>(lookup)];
  if (sinks_.load) lk.path.push_back(lk.frontier);
  // The source is frontier 0: it services the query injection itself,
  // then steps locally (no network legs).
  const double start = service(lk.frontier, now);
  if (start < 0) {  // dead or overloaded source: the query never enters
    complete(lookup, false, now, lk.frontier);
    return;
  }
  const double done = start + config_.service_ms;
  std::array<NodeIndex, kMaxStepCandidates> cands{};
  const StepResult step = stepper_(
      lk.frontier, result.key, lk.state,
      std::span<NodeIndex>(cands.data(),
                           static_cast<std::size_t>(config_.candidates)));
  if (step.done || step.count == 0) {
    complete(lookup, step.done && step.ok, done, lk.frontier);
    return;
  }
  // The only place slots_ grows: no Slot reference is live here.
  if (free_blocks_.empty()) {
    lk.block = static_cast<std::int32_t>(
        slots_.size() / static_cast<std::size_t>(config_.candidates));
    slots_.resize(slots_.size() +
                  static_cast<std::size_t>(config_.candidates));
  } else {
    lk.block = free_blocks_.back();
    free_blocks_.pop_back();
  }
  lk.cands = cands;
  lk.cand_count = step.count;
  begin_round(lookup, done);
}

void MessageSimulator::begin_round(std::int32_t lookup, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  lk.launched = 0;
  const int fan = std::min(config_.alpha, static_cast<int>(lk.cand_count));
  for (int i = 0; i < fan; ++i) {
    launch_candidate(lookup, i, now);
  }
}

void MessageSimulator::launch_candidate(std::int32_t lookup,
                                        std::int32_t cand, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  slot(lk, cand) = Slot{};
  lk.launched = cand + 1;
  send_probe(lookup, cand, now);
}

void MessageSimulator::send_probe(std::int32_t lookup, std::int32_t cand,
                                  double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  Slot& probe = slot(lk, cand);
  const NodeIndex target = lk.cands[static_cast<std::size_t>(cand)];
  ++totals_.sent;
  bool request_lost = false;
  bool response_lost = false;
  if (rolling_drops_) {
    // One forked stream per message attempt: draw both legs up front so
    // the pattern is a pure function of (drop seed, lookup, attempt).
    Rng msg_rng = drop_base_.fork(static_cast<std::uint64_t>(lookup))
                      .fork(static_cast<std::uint64_t>(lk.sends));
    request_lost = msg_rng.uniform_double() < drop_p_;
    response_lost = msg_rng.uniform_double() < drop_p_;
  }
  probe.stamp = lk.sends++;
  double arrive_ms = 0;
  if (request_lost) {
    ++totals_.link_drops;
  } else {
    arrive_ms = now + link_ms(lk.frontier, target);
    push_event(arrive_ms, next_seq_++, Kind::kArrive, lookup, cand,
               probe.stamp, target);
  }
  // The response-leg verdict rides in the slot so kArrive can apply it.
  probe.response_lost = response_lost;
  // The timeout's seq and deadline are fixed now, so ties break as if it
  // were pushed now; the event itself goes on the heap only once it can
  // fire. A lost request or one landing at or after the deadline settles
  // that here, on_arrive settles the rest.
  probe.deadline_ms =
      now + config_.timeout_ms *
                std::pow(config_.backoff, static_cast<double>(probe.attempt));
  probe.timeout_seq = next_seq_++;
  probe.armed = false;
  last_deadline_ = std::max(last_deadline_, probe.deadline_ms);
  if (request_lost || arrive_ms >= probe.deadline_ms || arm_every_timeout()) {
    arm_timeout(lookup, cand, probe);
  }
}

void MessageSimulator::arm_timeout(std::int32_t lookup, std::int32_t cand,
                                   Slot& probe) {
  probe.armed = true;
  push_event(probe.deadline_ms, probe.timeout_seq, Kind::kTimeout, lookup,
             cand, probe.stamp);
}

MessageSimulator::Slot* MessageSimulator::live_slot(const Event& ev) {
  if (!lookup_open(ev.lookup)) return nullptr;
  const Lookup& lk = state_[static_cast<std::size_t>(ev.lookup)];
  if (ev.cand >= lk.launched) return nullptr;
  Slot& probe = slot(lk, ev.cand);
  if (probe.stamp != ev.stamp || probe.responded || probe.failed) {
    return nullptr;
  }
  return &probe;
}

void MessageSimulator::on_arrive(const Event& ev) {
  // The request is on the wire regardless of lookup progress: stale
  // probes still consume the target's service capacity.
  const double start = service(ev.target, ev.at_ms);
  Slot* probe = live_slot(ev);
  if (!probe) return;  // stale: nobody is waiting for the verdict
  if (start < 0 || probe->response_lost) {
    // Dead node, inbox overflow or a lost response: the timeout recovers.
    if (start >= 0) ++totals_.link_drops;
    if (!probe->armed) arm_timeout(ev.lookup, ev.cand, *probe);
    return;
  }
  const Lookup& lk = state_[static_cast<std::size_t>(ev.lookup)];
  std::uint64_t state_copy = lk.state;
  const StepResult step = stepper_(
      ev.target, lookups_[static_cast<std::size_t>(ev.lookup)].key,
      state_copy,
      std::span<NodeIndex>(probe->next_cands.data(),
                           static_cast<std::size_t>(config_.candidates)));
  probe->result = step;
  probe->queue_ms = static_cast<float>(start - ev.at_ms);
  probe->state_after = state_copy;
  const double back_ms =
      start + config_.service_ms + link_ms(ev.target, lk.frontier);
  push_event(back_ms, next_seq_++, Kind::kResponse, ev.lookup, ev.cand,
             ev.stamp);
  // A response landing on the deadline pops after the timeout (larger
  // seq), so the timeout still fires.
  if (back_ms >= probe->deadline_ms && !probe->armed) {
    arm_timeout(ev.lookup, ev.cand, *probe);
  }
}

void MessageSimulator::on_response(const Event& ev) {
  Slot* probe = live_slot(ev);
  if (!probe) return;  // a retry superseded this attempt: late noise
  probe->responded = true;
  check_round(ev.lookup, ev.at_ms);
}

void MessageSimulator::on_timeout(const Event& ev) {
  Slot* probe = live_slot(ev);
  if (!probe) return;  // a response or a newer attempt decided it
  const std::int32_t lookup = ev.lookup;
  const double now = ev.at_ms;
  LookupResult& result = lookups_[static_cast<std::size_t>(lookup)];
  ++totals_.timeouts;
  if (timeouts_counter_) timeouts_counter_->inc();
  ++result.timeouts;
  if (probe->attempt + 1 < config_.retry_budget) {
    ++probe->attempt;
    ++totals_.retries;
    if (retries_counter_) retries_counter_->inc();
    ++result.retries;
    send_probe(lookup, ev.cand, now);
    return;
  }
  probe->failed = true;
  const Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  if (lk.launched < lk.cand_count) launch_candidate(lookup, lk.launched, now);
  check_round(lookup, now);
}

void MessageSimulator::check_round(std::int32_t lookup, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  // The frontier advances via the best-ranked candidate still in play:
  // the round is decided only once every better-ranked candidate has
  // permanently failed and that candidate has responded.
  for (std::int32_t i = 0; i < lk.cand_count; ++i) {
    if (i >= lk.launched) return;  // not launched yet: wait
    const Slot& probe = slot(lk, i);
    if (probe.failed) continue;
    if (probe.responded) advance(lookup, i, now);
    return;  // best-ranked survivor still waiting for its response
  }
  // Every candidate permanently failed: the lookup is lost.
  complete(lookup, false, now, lk.frontier);
}

void MessageSimulator::advance(std::int32_t lookup, std::int32_t cand,
                               double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  LookupResult& result = lookups_[static_cast<std::size_t>(lookup)];
  const Slot& probe = slot(lk, cand);
  const NodeIndex target = lk.cands[static_cast<std::size_t>(cand)];
  if (sinks_.trace && traced_[static_cast<std::size_t>(lookup)]) {
    telemetry::HopRecord hop;
    hop.lookup = trace_ids_[static_cast<std::size_t>(lookup)];
    hop.from = lk.frontier;
    hop.to = target;
    hop.hop_index = result.hops;
    hop.level = net_->lca_level(lk.frontier, target);
    hop.candidates = static_cast<std::uint32_t>(lk.cand_count);
    hop.queue_ms = probe.queue_ms;
    hop.hop_ms = link_ms(lk.frontier, target) + link_ms(target, lk.frontier);
    sinks_.trace->on_hop(hop);
  }
  lk.frontier = target;
  lk.state = probe.state_after;
  if (sinks_.load) lk.path.push_back(target);
  ++result.hops;
  if (probe.result.done) {
    complete(lookup, probe.result.ok, now, lk.frontier);
    return;
  }
  if (result.hops >= hop_guard_) {
    complete(lookup, false, now, lk.frontier);
    return;
  }
  lk.cands = probe.next_cands;
  lk.cand_count = probe.result.count;
  begin_round(lookup, now);
}

void MessageSimulator::complete(std::int32_t lookup, bool ok, double now,
                                NodeIndex terminal) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  LookupResult& result = lookups_[static_cast<std::size_t>(lookup)];
  result.completed_ms = now;
  result.ok = ok;
  if (!ok) ++totals_.failures;
  if (sinks_.trace && traced_[static_cast<std::size_t>(lookup)]) {
    sinks_.trace->end_lookup(trace_ids_[static_cast<std::size_t>(lookup)],
                             ok, terminal);
  }
  if (sinks_.journal && !ok) {
    sinks_.journal->lookup_failure(result.from, result.key, result.hops);
  }
  if (sinks_.timeseries) {
    sinks_.timeseries->lookup_completed(now, ok, now - result.issued_ms);
  }
  if (sinks_.load) {
    sinks_.load->observe(lk.path, ok, result.key, load_shard_);
    lk.path = {};
  }
  if (lk.block >= 0) {  // events still in flight see the lookup closed
    free_blocks_.push_back(lk.block);
    lk.block = -1;
  }
}

void MessageSimulator::run() {
  if (sinks_.timeseries) {
    sinks_.timeseries->live_nodes(now_, static_cast<double>(live_nodes()));
  }
  // Starts merge with the heap in (time, seq) order; appended in seq
  // order, a stable sort by time puts them in that order.
  std::stable_sort(starts_.begin() + static_cast<std::ptrdiff_t>(next_start_),
                   starts_.end(), [](const Start& a, const Start& b) {
                     return a.at_ms < b.at_ms;
                   });
  last_deadline_ = now_;
  for (;;) {
    if (next_start_ < starts_.size()) {
      const Start next = starts_[next_start_];
      if (queue_.empty() || next.at_ms < queue_.top().at_ms ||
          (next.at_ms == queue_.top().at_ms && next.seq < queue_.top().seq)) {
        ++next_start_;
        advance_clock(next.at_ms);
        start_lookup(next.lookup, next.at_ms);
        continue;
      }
    } else if (queue_.empty()) {
      break;
    }
    const Event ev = queue_.top();
    queue_.pop();
    advance_clock(ev.at_ms);
    switch (ev.kind) {
      case Kind::kArrive:
        on_arrive(ev);
        break;
      case Kind::kResponse:
        on_response(ev);
        break;
      case Kind::kTimeout:
        on_timeout(ev);
        break;
    }
  }
  starts_.clear();
  next_start_ = 0;
  // The timeouts left off the heap would all have popped stale; the clock
  // still runs out to the last of them, applying what falls due on the way.
  if (last_deadline_ > now_) advance_clock(last_deadline_);
  if (sinks_.load) {
    sinks_.load->merge(load_shard_);
    load_shard_ = telemetry::LoadAccountant::Shard{};
  }
  if (sinks_.journal && sinks_.snapshot_top_k > 0) {
    sinks_.journal->load_snapshot(
        now_, telemetry::top_loaded_nodes(
                  load_, static_cast<std::size_t>(sinks_.snapshot_top_k)));
  }
}

double lookup_latency_percentile(
    std::span<const MessageSimulator::LookupResult> lookups, double q) {
  std::vector<double> latencies;
  latencies.reserve(lookups.size());
  for (const auto& lk : lookups) {
    if (lk.completed_ms >= 0) latencies.push_back(lk.latency_ms());
  }
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(latencies.size())));
  if (rank == 0) rank = 1;
  return latencies[rank - 1];
}

}  // namespace canon
