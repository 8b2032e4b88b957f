// Message-granularity discrete-event simulation of α-parallel lookups.
//
// MessageSimulator is the library's one engine for concurrent lookups: it
// measures load homogeneity, domain confinement and latency under load,
// and what the paper's §5 claims meet in a real deployment — queueing,
// timeouts, retry traffic, congestion collapse. It models each in-flight
// lookup as a *sequence of timestamped messages* through per-node bounded
// inboxes:
//
// * Iterative, source-coordinated rounds (the Kademlia shape): the lookup
//   holds a frontier node and a ranked candidate list from the family's
//   Stepper (overlay/stepper.h). Each round it keeps up to α REQUEST
//   probes outstanding against the best unresolved candidates.
// * A REQUEST pays link latency (the HopCost callback, e.g. a transit-stub
//   LandmarkLatency table; default_hop_ms otherwise), lands in the target's
//   bounded inbox (overflow ⇒ the message is dropped), waits for the node
//   to drain ahead-of-it work, pays service_ms, and sends a RESPONSE
//   carrying the step verdict back over the same link.
// * Every probe attempt has a timeout (timeout_ms, multiplied by
//   `backoff` per retry). A probe whose response never arrives — crashed
//   node per the FaultPlan schedule, dropped request/response leg per the
//   plan's drop probability, inbox overflow, or plain congestion — is
//   resent up to retry_budget times, then marked failed and replaced by
//   the next ranked candidate.
// * A timeout's sequence number and deadline are reserved when its
//   request is sent, but the event goes on the heap only once it can
//   fire: a leg is lost, the target is dead or its inbox full, or the
//   request or response lands at or after the deadline. The rest would
//   pop stale; run() still carries the clock (and the faults and load
//   snapshots due) out to the last reserved deadline, as their pops did.
// * The frontier advances via the *best-ranked* candidate that responds
//   (candidate 0 unless it permanently failed, then candidate 1, ...), so
//   with α=1 and no faults the frontier walks exactly the family's greedy
//   chain — hop counts match the QueryEngine probe on the same workload —
//   while α>1 buys warm backups at the cost of speculative load.
//
// Determinism contract: the engine is serial; events drain in (time,
// sequence) order — submissions from a stably time-sorted start stream
// merged with the event heap — so simultaneous events resolve identically
// on every run; drop decisions come from RNG streams forked per message
// attempt (root seed → fork(lookup) → fork(attempt)); nothing reads the
// wall clock or thread count. Reports derived from a run are therefore
// byte-identical at any --threads.
//
// Memory follows the work in flight: a lookup holds a block of
// `candidates` probe slots from its first round until it completes, and
// completed lookups' blocks are reused. Events carry their target and an
// attempt stamp, so a stale request still charges its target's service
// time without touching a slot.
//
// There is no recursive (hop-to-hop forwarding) mode: every caller works
// with iterative rounds, and the latency and stretch figures use static
// path costs instead (docs/SIMULATION.md).
//
// Observers attach as one SimSinks bundle (overlay/sim_sinks.h). Traced
// hops carry the responding attempt's inbox wait (queue_ms) and its
// request plus response link latency (hop_ms); SimSinks::load receives
// every completed lookup's frontier path, so domain confinement and
// hotspot reports work under concurrent traffic.
#ifndef CANON_OVERLAY_MESSAGE_SIM_H
#define CANON_OVERLAY_MESSAGE_SIM_H

#include <array>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "common/rng.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/sim_sinks.h"
#include "overlay/stepper.h"
#include "telemetry/load_stats.h"
#include "telemetry/metrics.h"

namespace canon::telemetry {
class EventJournal;  // telemetry/journal.h
}

namespace canon {

struct MessageSimConfig {
  /// Serial cost for a node to service one request (ms).
  double service_ms = 0.05;
  /// Per-message link latency when no HopCost callback is supplied.
  double default_hop_ms = 1.0;
  /// Outstanding probes per round (Kademlia's α). 1 = the iterative
  /// baseline; clamped by the candidate width below.
  int alpha = 1;
  /// Ranked candidates requested from the stepper per hop — the pool α
  /// probes draw from and timeouts fall back to.
  int candidates = kMaxStepCandidates;
  /// Bounded inbox: a request finding this many messages queued ahead of
  /// it at the target is dropped (counts as inbox_drops, recovers via the
  /// sender's timeout).
  int inbox_capacity = 64;
  /// First-attempt response deadline; attempt a waits
  /// timeout_ms * backoff^a.
  double timeout_ms = 8.0;
  double backoff = 2.0;
  /// Sends per candidate before it is marked failed (kRetryBudget: the
  /// ladder the resilient routing cores use).
  int retry_budget = kRetryBudget;
};

class MessageSimulator {
 public:
  /// `stepper` empty selects the greedy-clockwise ring stepper; pass a
  /// family's stepper from registry::family(name).make_stepper for any
  /// other family. `latency` empty charges default_hop_ms per message.
  /// Throws std::invalid_argument on a link table of another size or a
  /// config out of range.
  MessageSimulator(const OverlayNetwork& net, const LinkTable& links,
                   Stepper stepper = {}, HopCost latency = {},
                   MessageSimConfig config = {});

  struct LookupResult {
    std::uint32_t from = 0;
    NodeId key = 0;
    double issued_ms = 0;
    double completed_ms = -1;  ///< -1 until completed
    int hops = 0;              ///< frontier advances
    bool ok = false;
    int timeouts = 0;  ///< probe attempts that expired
    int retries = 0;   ///< expired attempts that were resent

    double latency_ms() const { return completed_ms - issued_ms; }
  };

  /// Whole-run message accounting.
  struct Totals {
    std::uint64_t sent = 0;        ///< REQUEST attempts put on the wire
    std::uint64_t serviced = 0;    ///< requests a live node processed
    std::uint64_t timeouts = 0;    ///< attempts that expired
    std::uint64_t retries = 0;     ///< expired attempts resent
    std::uint64_t link_drops = 0;  ///< request/response legs the plan dropped
    std::uint64_t inbox_drops = 0; ///< requests bounced off a full inbox
    std::uint64_t failures = 0;    ///< lookups completed unsuccessfully
  };

  /// Schedules a lookup; returns its index into lookups(). Throws
  /// std::out_of_range on a bad node and std::invalid_argument on a time
  /// that is not finite.
  int submit(std::uint32_t from, NodeId key, double at_ms);

  /// Drains the submitted starts and the event heap; every submitted
  /// lookup completes (ok or not).
  void run();

  const std::vector<LookupResult>& lookups() const { return lookups_; }
  const Totals& totals() const { return totals_; }

  /// Requests serviced by each node over the run (routing load).
  const std::vector<std::uint64_t>& node_load() const { return load_; }

  /// Deepest inbox each node saw (messages queued ahead + the arrival).
  const std::vector<std::uint32_t>& max_queue_depth() const {
    return max_depth_;
  }

  /// Simulated clock after run().
  double now_ms() const { return now_; }

  /// Installs the observer bundle (overlay/sim_sinks.h); replaces the
  /// previous one, validates once. Attach before run(). Per field:
  ///
  /// * trace — hop events with queueing delay and link latency; lookups
  ///   submitted before attachment that have not completed get a
  ///   retroactive begin_lookup.
  /// * journal — failed lookups emit lookup_failure, applied faults emit
  ///   crash/revive, and snapshot_top_k > 0 emits load_snapshot every
  ///   snapshot_window_ms plus one when run() drains.
  /// * timeseries — submissions, completions, per-message queueing and
  ///   the live-node count; pending submissions are backfilled on attach.
  /// * fault_plan — crash/revive on the simulated clock (FaultEvent::at in
  ///   ms) and the drop probability per message leg.
  /// * load — every completed lookup's frontier path.
  void attach(const SimSinks& sinks);

  const SimSinks& sinks() const { return sinks_; }

  /// Live nodes right now (population minus crashed).
  std::size_t live_nodes() const { return dead_.size() - dead_.dead_count(); }

 private:
  /// Heap events. Starts are not among them: they wait in starts_.
  enum class Kind : std::uint8_t { kArrive, kResponse, kTimeout };

  struct Event {
    double at_ms = 0;
    std::uint64_t seq = 0;  ///< tie-break: events pop in (time, seq) order
    std::int32_t lookup = -1;
    std::uint32_t stamp = 0;  ///< the attempt it belongs to (Slot::stamp)
    NodeIndex target = 0;     ///< kArrive: the node that services it
    std::uint8_t cand = 0;    ///< the candidate slot of the lookup's round
    Kind kind = Kind::kArrive;

    bool operator>(const Event& other) const {
      if (at_ms != other.at_ms) return at_ms > other.at_ms;
      return seq > other.seq;
    }
  };

  /// A submitted lookup; its seq is taken at submit, as for any event.
  struct Start {
    double at_ms = 0;
    std::uint64_t seq = 0;
    std::int32_t lookup = -1;
  };

  /// The probe of one candidate in the lookup's current round. A lookup
  /// holds a block of config.candidates slots from its first round until
  /// it completes; events find their slot by (lookup, cand) and match it
  /// by stamp.
  struct Slot {
    std::uint32_t stamp = 0;   ///< the lookup's send count at this attempt
    std::int32_t attempt = 0;  ///< resends so far: the backoff exponent
    bool responded = false;
    bool failed = false;
    bool response_lost = false;  ///< this attempt's response leg is doomed
    bool armed = false;          ///< the timeout event is on the heap
    float queue_ms = 0;  ///< responding attempt's inbox wait
    StepResult result;
    double deadline_ms = 0;
    std::uint64_t timeout_seq = 0;  ///< reserved when the request is sent
    std::uint64_t state_after = 0;
    std::array<NodeIndex, kMaxStepCandidates> next_cands{};
  };

  struct Lookup {
    NodeIndex frontier = 0;
    std::int32_t cand_count = 0;
    std::int32_t launched = 0;  ///< slots [0, launched) are this round's
    std::int32_t block = -1;    ///< slot block index, -1 when none is held
    std::uint32_t sends = 0;    ///< forks the drop streams, stamps slots
    std::uint64_t state = 0;
    std::array<NodeIndex, kMaxStepCandidates> cands{};
    std::vector<std::uint32_t> path;  ///< frontier chain, with a load sink
  };

  void push_event(double at_ms, std::uint64_t seq, Kind kind,
                  std::int32_t lookup, std::int32_t cand, std::uint32_t stamp,
                  NodeIndex target = 0);
  double link_ms(NodeIndex a, NodeIndex b) const;
  /// Moves the clock to `at_ms` (never back) and applies the faults and
  /// load snapshots due by then.
  void advance_clock(double at_ms);
  void apply_faults_until(double now);
  void maybe_snapshot(double now);

  /// Services one request at `node` (queueing, load, depth); returns the
  /// time service starts or a negative value when the message was lost
  /// (dead node or inbox overflow).
  double service(NodeIndex node, double at_ms);

  Slot& slot(const Lookup& lk, std::int32_t cand) {
    return slots_[static_cast<std::size_t>(lk.block) *
                      static_cast<std::size_t>(config_.candidates) +
                  static_cast<std::size_t>(cand)];
  }
  /// The slot `ev` belongs to, or null when the event is stale: its lookup
  /// completed, its round moved on, or a resend, response or final
  /// timeout already decided the attempt.
  Slot* live_slot(const Event& ev);
  /// True while a stale timeout's pop could still reorder the journal:
  /// each pop flushes the faults and then the snapshot windows due by
  /// then, so while both are pending every timeout goes on the heap.
  bool arm_every_timeout() const {
    return sinks_.journal && sinks_.snapshot_top_k > 0 &&
           next_fault_ < fault_schedule_.size();
  }
  void arm_timeout(std::int32_t lookup, std::int32_t cand, Slot& slot);

  void start_lookup(std::int32_t lookup, double now);
  void launch_candidate(std::int32_t lookup, std::int32_t cand, double now);
  void send_probe(std::int32_t lookup, std::int32_t cand, double now);
  void on_arrive(const Event& ev);
  void on_response(const Event& ev);
  void on_timeout(const Event& ev);

  /// Advances/fails the lookup if its best-ranked candidate is decided.
  void check_round(std::int32_t lookup, double now);
  void advance(std::int32_t lookup, std::int32_t cand, double now);
  void begin_round(std::int32_t lookup, double now);
  void complete(std::int32_t lookup, bool ok, double now,
                NodeIndex terminal);

  bool lookup_open(std::int32_t lookup) const {
    return lookups_[static_cast<std::size_t>(lookup)].completed_ms < 0;
  }

  const OverlayNetwork* net_;
  const LinkTable* links_;
  Stepper stepper_;
  HopCost latency_;
  MessageSimConfig config_;
  int hop_guard_;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<Start> starts_;  // stably sorted by time when run() begins
  std::size_t next_start_ = 0;
  std::uint64_t next_seq_ = 0;
  double now_ = 0;
  double last_deadline_ = 0;  // latest timeout reserved by this run()

  std::vector<LookupResult> lookups_;
  std::vector<Lookup> state_;
  std::vector<Slot> slots_;  // blocks of config_.candidates slots
  std::vector<std::int32_t> free_blocks_;
  Totals totals_;

  std::vector<std::uint64_t> load_;
  std::vector<double> busy_until_;
  std::vector<std::uint32_t> max_depth_;

  FailureSet dead_;
  std::vector<FaultEvent> fault_schedule_;  // stably sorted by time
  std::size_t next_fault_ = 0;
  bool rolling_drops_ = false;
  double drop_p_ = 0;
  Rng drop_base_{0};

  SimSinks sinks_;
  std::int64_t snapshots_emitted_ = 0;
  std::vector<std::uint64_t> trace_ids_;  // parallel to lookups_
  std::vector<bool> traced_;  // begin_lookup fired (ids may be 0)
  telemetry::LoadAccountant::Shard load_shard_;  // merged when run() drains

  telemetry::Counter* messages_counter_;
  telemetry::Counter* timeouts_counter_;
  telemetry::Counter* retries_counter_;
  telemetry::LatencyHistogram* queue_hist_;
};

/// Nearest-rank percentile (q in [0,1]) of completed lookups' end-to-end
/// latency; 0 when none completed. Pure function of the results array.
double lookup_latency_percentile(
    std::span<const MessageSimulator::LookupResult> lookups, double q);

}  // namespace canon

#endif  // CANON_OVERLAY_MESSAGE_SIM_H
