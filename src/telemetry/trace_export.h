// Chrome trace-event export: construction phases and lookup traces as a
// file chrome://tracing or ui.perfetto.dev can open.
//
// The exporter assembles the JSON object format of the Trace Event spec —
// {"displayTimeUnit": "ms", "traceEvents": [...]} with "X" (complete),
// "C" (counter) and "M" (metadata) events, timestamps in microseconds —
// from three sources:
//
//   * a SpanLog of named ScopedTimer spans (construction and maintenance
//     phases, e.g. build.crescendo_ms), one track per process id;
//   * sampled lookup traces from a RecordingTraceSink, one thread track
//     per lookup, one "X" slice per hop (real queue/latency durations
//     when the trace came from the message simulator, a 1µs-per-hop
//     synthetic timeline otherwise);
//   * a TimeSeriesRecorder, exported as counter tracks on the simulated
//     clock.
//
// Surfaced to operators as `canon_doctor --trace-out=<path>` (see
// docs/TELEMETRY.md for a loading walkthrough).
#ifndef CANON_TELEMETRY_TRACE_EXPORT_H
#define CANON_TELEMETRY_TRACE_EXPORT_H

#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/json_writer.h"
#include "telemetry/scoped_timer.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace canon::telemetry {

class TraceExporter {
 public:
  /// Default process ids for the three standard tracks.
  static constexpr int kBuildPid = 1;
  static constexpr int kLookupPid = 2;
  static constexpr int kSeriesPid = 3;

  /// Names the process / thread track in the viewer ("M" metadata events).
  void set_process_name(int pid, std::string_view name);
  void set_thread_name(int pid, int tid, std::string_view name);

  /// One complete ("X") slice. Timestamps and durations in microseconds;
  /// `args` (when an object) becomes the slice's argument payload.
  void add_complete(std::string_view name, std::string_view category,
                    double ts_us, double dur_us, int pid, int tid,
                    JsonValue args = JsonValue());

  /// One counter ("C") sample.
  void add_counter(std::string_view name, double ts_us, double value,
                   int pid = kSeriesPid);

  /// Every span of `log` as "X" slices on one thread of `pid`.
  void add_span_log(const SpanLog& log, int pid = kBuildPid);

  /// The first `max_lookups` recorded lookups, one thread track each
  /// (tid = lookup index + 1). Hops with event-simulator timing use their
  /// real queue+latency durations; untimed hops get 1µs each.
  void add_lookup_traces(const RecordingTraceSink& sink,
                         std::size_t max_lookups = 64, int pid = kLookupPid);

  /// Every window of `series` as counter tracks (simulated ms -> trace µs).
  void add_timeseries(const TimeSeriesRecorder& series, int pid = kSeriesPid);

  std::size_t event_count() const { return events_.size(); }

  /// {"displayTimeUnit": "ms", "traceEvents": [...]}.
  JsonValue to_json() const;

  /// Writes to_json() compactly; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  JsonValue events_ = JsonValue::array();
};

}  // namespace canon::telemetry

#endif  // CANON_TELEMETRY_TRACE_EXPORT_H
