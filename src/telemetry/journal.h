// Append-only JSONL event journal: a churn run as a replayable artifact.
//
// Structural failures under churn manifest as silent drift long before
// lookup metrics degrade, so the journal records *what happened to the
// overlay* — joins, leaves, repair fan-out, lookup failures, periodic
// auditor snapshots — one JSON object per line, each stamped with a
// monotonically increasing sequence number. A journal can be diffed
// between runs (same seed => byte-identical event stream modulo wall
// clock, which the journal deliberately omits) and replayed: canon_doctor
// reconstructs the membership trajectory from the join/leave events and
// re-audits the final state (see docs/TELEMETRY.md for the schema).
//
// Event envelope (every line):   {"seq": <u64>, "type": "<type>", ...}
// Emitters in the library:
//   DynamicCrescendo::set_journal  -> join / leave / repair
//   MessageSimulator (SimSinks)    -> lookup_failure / load_snapshot /
//                                     crash / revive (applied faults)
//   StructureAuditor callers       -> audit_snapshot (via audit_snapshot())
//   FaultPlan::materialize         -> crash / revive (injected faults)
//
// Like the rest of the telemetry layer the journal is opt-in and
// single-threaded; no journal attached means no work on any code path.
#ifndef CANON_TELEMETRY_JOURNAL_H
#define CANON_TELEMETRY_JOURNAL_H

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/json_writer.h"

namespace canon::telemetry {

class EventJournal {
 public:
  /// Journals into a caller-owned stream (kept by reference).
  explicit EventJournal(std::ostream& os);

  /// Journals into `path`, truncating; throws std::runtime_error when the
  /// file cannot be opened.
  explicit EventJournal(const std::string& path);

  /// Number of events written so far == the next event's "seq".
  std::uint64_t events() const { return seq_; }

  /// Core primitive: writes one line `{"seq": n, "type": type, <fields>}`.
  /// `fields` must be an object (its members are appended after the
  /// envelope keys, preserving order). Returns the event's seq.
  std::uint64_t record(std::string_view type, JsonValue fields);

  // Convenience emitters for the library's event vocabulary. `size` is
  // always the membership size *after* the operation.
  std::uint64_t join(std::uint64_t id, const std::vector<std::uint16_t>& path,
                     int lookup_hops, std::size_t size);
  std::uint64_t leave(std::uint64_t id, std::size_t size);
  /// Link recomputations triggered by the join/leave of `pivot`.
  std::uint64_t repair(std::string_view cause, std::uint64_t pivot,
                       int nodes_updated);
  std::uint64_t lookup_failure(std::uint32_t from, std::uint64_t key,
                               int hops);
  /// Periodic structural-health snapshot (see audit::StructureAuditor).
  std::uint64_t audit_snapshot(std::size_t size, std::uint64_t checks,
                               std::uint64_t violations);
  /// Injected fail-stop of node index `node` (overlay ID `id`) at virtual
  /// time `at` (FaultPlan::materialize).
  std::uint64_t crash(std::uint32_t node, std::uint64_t id, std::uint64_t at);
  /// Injected revival; same fields as crash.
  std::uint64_t revive(std::uint32_t node, std::uint64_t id, std::uint64_t at);
  /// Top-k loaded nodes at simulated time `t_ms` (one per aggregation
  /// window; SimSinks::snapshot_top_k). `top_nodes` pairs are
  /// (node index, messages handled), hottest first.
  std::uint64_t load_snapshot(
      double t_ms,
      std::span<const std::pair<std::uint32_t, std::uint64_t>> top_nodes);

  void flush();

 private:
  std::unique_ptr<std::ofstream> owned_;  // set for the path constructor
  std::ostream* os_;
  std::uint64_t seq_ = 0;
};

/// Parses a JSONL journal back into one JsonValue per event. Throws
/// std::runtime_error on malformed lines, a missing/non-numeric "seq" or
/// "type", or sequence numbers that are not exactly 0,1,2,... (a gap means
/// the artifact is truncated or interleaved and must not be trusted).
std::vector<JsonValue> read_journal(std::istream& is);
std::vector<JsonValue> read_journal_file(const std::string& path);

}  // namespace canon::telemetry

#endif  // CANON_TELEMETRY_JOURNAL_H
