#include "overlay/event_sim.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "overlay/routing.h"
#include "telemetry/journal.h"
#include "telemetry/load_stats.h"

namespace canon {

EventSimulator::EventSimulator(const OverlayNetwork& net,
                               const LinkTable& links, HopCost latency,
                               EventSimConfig config)
    : net_(&net),
      links_(&links),
      latency_(std::move(latency)),
      config_(config),
      stepper_(make_ring_stepper(net, links)),
      load_(net.size(), 0),
      busy_until_(net.size(), 0),
      dead_(net.size()),
      messages_counter_(telemetry::maybe_counter("event_sim.messages")),
      completed_counter_(telemetry::maybe_counter("event_sim.completed")),
      queue_hist_(telemetry::maybe_histogram("event_sim.queue_ms")) {
  require_routable(net, links, "EventSimulator");
}

void EventSimulator::set_stepper(Stepper stepper) {
  stepper_ = stepper ? std::move(stepper)
                     : make_ring_stepper(*net_, *links_);
}

void EventSimulator::attach(const SimSinks& sinks) {
  sinks.validate();
  if (sinks.trace != sink_) {
    sink_ = sinks.trace;
    if (sink_) {
      // Backfill begin_lookup for lookups submitted before the sink was
      // attached so their hop/end events carry a real lookup id.
      for (std::size_t i = 0; i < lookups_.size(); ++i) {
        if (!traced_[i] && lookups_[i].completed_ms < 0) {
          trace_ids_[i] = sink_->begin_lookup(lookups_[i].from,
                                              lookups_[i].key);
          traced_[i] = true;
        }
      }
    }
  }
  journal_ = sinks.journal;
  if (sinks.timeseries != timeseries_) {
    timeseries_ = sinks.timeseries;
    if (timeseries_) {
      // Backfill submissions that have not yet completed, mirroring the
      // trace sink's retroactive begin_lookup.
      for (const LookupStats& lk : lookups_) {
        if (lk.completed_ms < 0) timeseries_->lookup_issued(lk.issued_ms);
      }
    }
  }
  if (sinks.fault_plan != sinks_.fault_plan) {
    fault_schedule_.clear();
    next_fault_ = 0;
    if (sinks.fault_plan) {
      const auto events = sinks.fault_plan->events();
      fault_schedule_.assign(events.begin(), events.end());
      std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                       [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                       });
    }
  }
  snapshot_k_ = sinks.snapshot_top_k;
  snapshot_window_ms_ = sinks.snapshot_window_ms;
  sinks_ = sinks;
}

void EventSimulator::set_trace(telemetry::RouteTraceSink* sink) {
  SimSinks sinks = sinks_;
  sinks.trace = sink;
  attach(sinks);
}

void EventSimulator::set_journal(telemetry::EventJournal* journal) {
  SimSinks sinks = sinks_;
  sinks.journal = journal;
  attach(sinks);
}

void EventSimulator::set_timeseries(telemetry::TimeSeriesRecorder* series) {
  SimSinks sinks = sinks_;
  sinks.timeseries = series;
  attach(sinks);
}

void EventSimulator::set_fault_plan(const FaultPlan* plan) {
  SimSinks sinks = sinks_;
  sinks.fault_plan = plan;
  attach(sinks);
}

void EventSimulator::set_load_snapshots(int top_k, double window_ms) {
  SimSinks sinks = sinks_;
  sinks.snapshot_top_k = top_k;
  sinks.snapshot_window_ms = window_ms;
  attach(sinks);
}

int EventSimulator::submit(std::uint32_t from, NodeId key, double at_ms) {
  if (from >= net_->size()) {
    throw std::out_of_range("EventSimulator::submit: bad node");
  }
  LookupStats stats;
  stats.from = from;
  stats.key = key;
  stats.issued_ms = at_ms;
  const int id = static_cast<int>(lookups_.size());
  lookups_.push_back(stats);
  step_state_.push_back(0);
  trace_ids_.push_back(sink_ ? sink_->begin_lookup(from, key) : 0);
  traced_.push_back(sink_ != nullptr);
  if (timeseries_) timeseries_->lookup_issued(at_ms);
  queue_.push(Event{at_ms, id, from});
  return id;
}

void EventSimulator::apply_faults_until(double now) {
  while (next_fault_ < fault_schedule_.size() &&
         static_cast<double>(fault_schedule_[next_fault_].at) <= now) {
    const FaultEvent& fe = fault_schedule_[next_fault_++];
    if (fe.kind == FaultEvent::Kind::kCrash) {
      dead_.kill(fe.node);
      if (journal_) journal_->crash(fe.node, net_->id(fe.node), fe.at);
    } else {
      dead_.revive(fe.node);
      if (journal_) journal_->revive(fe.node, net_->id(fe.node), fe.at);
    }
    if (timeseries_) {
      timeseries_->live_nodes(static_cast<double>(fe.at),
                              static_cast<double>(live_nodes()));
    }
  }
}

void EventSimulator::maybe_snapshot(double now) {
  if (!journal_ || snapshot_k_ <= 0) return;
  while (static_cast<double>(snapshots_emitted_ + 1) * snapshot_window_ms_ <=
         now) {
    ++snapshots_emitted_;
    const double t =
        static_cast<double>(snapshots_emitted_) * snapshot_window_ms_;
    journal_->load_snapshot(
        t, telemetry::top_loaded_nodes(
               load_, static_cast<std::size_t>(snapshot_k_)));
  }
}

void EventSimulator::complete_failed(int lookup, double at_ms,
                                     std::uint32_t terminal) {
  LookupStats& stats = lookups_[static_cast<std::size_t>(lookup)];
  stats.completed_ms = at_ms;
  stats.ok = false;
  if (completed_counter_) completed_counter_->inc();
  if (sink_ && traced_[static_cast<std::size_t>(lookup)]) {
    sink_->end_lookup(trace_ids_[static_cast<std::size_t>(lookup)], false,
                      terminal);
  }
  if (journal_) journal_->lookup_failure(stats.from, stats.key, stats.hops);
  if (timeseries_) {
    timeseries_->lookup_completed(at_ms, false, at_ms - stats.issued_ms);
  }
}

void EventSimulator::run() {
  const int max_hops = hop_guard(*net_);
  if (timeseries_) {
    timeseries_->live_nodes(now_, static_cast<double>(live_nodes()));
  }
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    now_ = std::max(now_, ev.at_ms);
    apply_faults_until(now_);
    maybe_snapshot(now_);
    LookupStats& stats = lookups_[static_cast<std::size_t>(ev.lookup)];

    // A message arriving at a crashed node is lost: the lookup fails at
    // the arrival time; the dead node pays no processing and no load.
    if (dead_.any() && dead_.dead(ev.node)) {
      complete_failed(ev.lookup, ev.at_ms, ev.node);
      continue;
    }

    // The message occupies the node from max(arrival, node free).
    const double start =
        std::max(ev.at_ms, busy_until_[ev.node]);
    const double done = start + config_.processing_ms;
    busy_until_[ev.node] = done;
    ++load_[ev.node];
    if (messages_counter_) messages_counter_->inc();
    if (queue_hist_) queue_hist_->record_ms(start - ev.at_ms);
    if (timeseries_) timeseries_->message(ev.at_ms, start - ev.at_ms);

    // One stepper candidate: this engine follows the family's greedy
    // chain (candidate 0), one message per hop.
    NodeIndex next = ev.node;
    const StepResult step = stepper_(
        ev.node, stats.key,
        step_state_[static_cast<std::size_t>(ev.lookup)],
        std::span<NodeIndex>(&next, 1));
    if (step.done || step.count == 0 || stats.hops >= max_hops) {
      stats.completed_ms = done;
      stats.ok = (stats.hops < max_hops) && step.done && step.ok;
      if (completed_counter_) completed_counter_->inc();
      if (sink_ && traced_[static_cast<std::size_t>(ev.lookup)]) {
        sink_->end_lookup(trace_ids_[static_cast<std::size_t>(ev.lookup)],
                          stats.ok, ev.node);
      }
      if (journal_ && !stats.ok) {
        journal_->lookup_failure(stats.from, stats.key, stats.hops);
      }
      if (timeseries_) {
        timeseries_->lookup_completed(done, stats.ok, done - stats.issued_ms);
      }
      continue;
    }
    const double hop_ms =
        latency_ ? latency_(ev.node, next) : config_.default_hop_ms;
    if (sink_ && traced_[static_cast<std::size_t>(ev.lookup)]) {
      telemetry::HopRecord hop;
      hop.lookup = trace_ids_[static_cast<std::size_t>(ev.lookup)];
      hop.from = ev.node;
      hop.to = next;
      hop.hop_index = stats.hops;
      hop.level = net_->lca_level(ev.node, next);
      hop.candidates =
          static_cast<std::uint32_t>(links_->neighbors(ev.node).size());
      hop.queue_ms = start - ev.at_ms;
      hop.hop_ms = hop_ms;
      sink_->on_hop(hop);
    }
    ++stats.hops;
    queue_.push(Event{done + hop_ms, ev.lookup, next});
  }
  // Final snapshot at the drained clock so a run shorter than one window
  // still leaves a load record.
  if (journal_ && snapshot_k_ > 0) {
    journal_->load_snapshot(
        now_, telemetry::top_loaded_nodes(
                  load_, static_cast<std::size_t>(snapshot_k_)));
  }
}

}  // namespace canon
