// The simulator's observer bundle.
//
// SimSinks is the one aggregate MessageSimulator::attach accepts: raw
// pointers to the caller-owned sinks plus the options that only mean
// something when a sink is present, validated once at attach() time.
//
//   telemetry::TimeSeriesRecorder series(50.0);
//   SimSinks sinks;
//   sinks.timeseries = &series;
//   sinks.fault_plan = &plan;
//   sinks.snapshot_top_k = 5;       // needs sinks.journal
//   sim.attach(sinks);              // validates, then installs atomically
//
// All pointers are borrowed: the caller keeps the sinks alive for the
// simulator's lifetime. Attaching replaces the whole previous bundle
// (attach(SimSinks{}) detaches everything).
#ifndef CANON_OVERLAY_SIM_SINKS_H
#define CANON_OVERLAY_SIM_SINKS_H

#include <stdexcept>

namespace canon {

class FaultPlan;  // overlay/fault_plan.h

namespace telemetry {
class RouteTraceSink;     // telemetry/trace.h
class EventJournal;       // telemetry/journal.h
class TimeSeriesRecorder; // telemetry/timeseries.h
class LoadAccountant;     // telemetry/load_stats.h
}  // namespace telemetry

/// Everything a simulator run can observe or be perturbed by, in one
/// aggregate. See the file comment for ownership and attach semantics.
struct SimSinks {
  /// Per-hop route tracing (begin/on_hop/end, keyed by lookup id).
  telemetry::RouteTraceSink* trace = nullptr;

  /// Event journal: lookup failures, applied crash/revive events, load
  /// snapshots.
  telemetry::EventJournal* journal = nullptr;

  /// Windowed curves over the simulated clock: submissions, completions,
  /// per-message queueing, live-node count.
  telemetry::TimeSeriesRecorder* timeseries = nullptr;

  /// Crash/revive schedule applied on the simulated clock, plus the
  /// per-message-leg drop probability. Borrowed.
  const FaultPlan* fault_plan = nullptr;

  /// Every completed lookup's frontier path, tallied for
  /// domain-confinement / hotspot reports.
  telemetry::LoadAccountant* load = nullptr;

  /// Emit a load_snapshot journal line with the top-k loaded nodes every
  /// snapshot_window_ms of simulated time (<= 0 disables). Snapshots only
  /// emit while a journal is attached.
  int snapshot_top_k = 0;
  double snapshot_window_ms = 50.0;

  /// Validates the option fields; attach() calls this once. Throws
  /// std::invalid_argument on a bundle that could only be a bug.
  void validate() const {
    if (snapshot_window_ms <= 0) {
      throw std::invalid_argument(
          "SimSinks: snapshot_window_ms must be > 0");
    }
  }
};

}  // namespace canon

#endif  // CANON_OVERLAY_SIM_SINKS_H
