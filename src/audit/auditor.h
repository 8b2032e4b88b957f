// Structural health auditing for every overlay family.
//
// The paper's central claims are structural: Crescendo's per-level rings
// close (Section 2.1), Can-Can's zones tile each domain (Section 3.4), and
// incremental maintenance converges to the from-scratch construction
// (Section 2.3). The telemetry layer observes *behavior* (hops, latency,
// load); this module validates *structure*, so that drift under churn is
// detected and attributed before lookup metrics degrade.
//
// StructureAuditor runs named check batteries over an (OverlayNetwork,
// LinkTable) pair and returns machine-readable Violation records — one per
// failed assertion, carrying the check name, the offending node, the
// hierarchy level, and a human-readable detail — instead of a bare bool.
// Which batteries a named construction guarantees is recorded in the
// family registry (overlay/family_registry.h) — `registry::audit_family`
// composes them:
//
//   battery          invariant                               families
//   ---------------  --------------------------------------  -----------------
//   csr              LinkTable CSR consistency: rows sorted  all
//                    strictly ascending, no self/dangling
//                    targets, inline NodeIds aligned
//   hierarchy        DomainTree consistency + merge-limit    all
//                    monotonicity (coarser rings never have
//                    farther successors)
//   ring.closure     per-level ring closure: every node      ring families
//                    links to its successor in every domain
//                    ring it belongs to
//   chord.finger     exact finger sets (condition (a)+(b))   chord, crescendo
//   links.expected   byte-diff against a from-scratch        deterministic
//                    rebuild                                 families
//   xor.bucket       XOR bucket coverage per domain          kademlia, kandy
//   zone.tiling /    CAN zones tile the space exactly; a     can, cancan
//   zone.containment node's primary zone contains its ID
//   can.face         CAN face-neighbor links present         can, cancan (leaf)
//   group.clique     intra-group cliques complete            *_prox
//   live.degree /    under an injected FailureSet: every     any (on demand)
//   live.leafset     live node keeps a live neighbor and a
//                    live global-ring successor in reach
//
// Checks count toward the `audit.checks` / `audit.violations` telemetry
// counters when a MetricsRegistry is installed. Audits are read-only and
// run at human cadence (doctor runs, periodic churn snapshots); none of
// this is on a routing hot path.
#ifndef CANON_AUDIT_AUDITOR_H
#define CANON_AUDIT_AUDITOR_H

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dht/can.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "telemetry/json_writer.h"

namespace canon {
class GroupedOverlay;  // canon/proximity.h
}

namespace canon::audit {

/// Sentinel for violations not attributable to a single node.
inline constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

/// One failed structural assertion.
struct Violation {
  std::string check;            ///< battery name, e.g. "ring.closure"
  std::uint32_t node = kNoNode; ///< offending node index, or kNoNode
  int level = -1;               ///< hierarchy level, -1 when not applicable
  std::string detail;           ///< human-readable explanation
};

/// The outcome of one or more batteries: every violation plus the number
/// of assertions each battery evaluated (so "ok" is distinguishable from
/// "didn't look").
struct AuditReport {
  std::vector<Violation> violations;
  std::map<std::string, std::uint64_t> checks;  ///< battery -> assertions

  bool ok() const { return violations.empty(); }
  std::uint64_t total_checks() const;

  /// {"ok": bool, "checks": {battery: n}, "violation_count": n,
  ///  "violations": [{check, node, level, detail}, ...]} — the shape
  /// embedded in canon_doctor --json and in bench reports.
  telemetry::JsonValue to_json() const;

  /// One line: "HEALTHY (N checks)" or "K violations (first: ...)".
  std::string summary() const;
};

class StructureAuditor {
 public:
  /// `links` must be built over `net`'s node ids (require_routable throws
  /// std::invalid_argument otherwise); both references are borrowed for
  /// the auditor's lifetime.
  StructureAuditor(const OverlayNetwork& net, const LinkTable& links);

  // Individual batteries. Each appends to `r.violations`, bumps its entry
  // in `r.checks`, and feeds the audit.* telemetry counters.

  /// CSR consistency of the link table (battery "csr").
  void check_csr(AuditReport& r) const;

  /// DomainTree consistency + merge-limit monotonicity ("hierarchy").
  void check_hierarchy(AuditReport& r) const;

  /// Ring closure for every level in [min_level, node depth]: each node
  /// links to its successor within each of those domain rings
  /// ("ring.closure"). Pass max_level = 0 for flat constructions.
  void check_ring_closure(AuditReport& r, int min_level, int max_level) const;

  /// Exact Chord/Crescendo finger sets ("chord.finger"): recomputes every
  /// node's finger set (per-level with merge limits when `hierarchical`)
  /// and reports both missing and extra links.
  void check_chord_fingers(AuditReport& r, bool hierarchical) const;

  /// Byte-diff against an expected from-scratch table ("links.expected",
  /// or `check_name` when given): per-node missing/extra links.
  void check_expected(AuditReport& r, const LinkTable& expected,
                      std::string_view check_name = "links.expected") const;

  /// XOR bucket coverage ("xor.bucket"): for each domain of each node's
  /// chain (root only when not `hierarchical`), every bucket that is
  /// non-empty among the domain's members holds at least one link into
  /// that domain — the invariant greedy XOR routing needs.
  void check_xor_buckets(AuditReport& r, bool hierarchical) const;

  /// A zone with the member that owns it, extracted from a ZoneTree (or
  /// corrupted by a mutation test).
  struct OwnedZone {
    ZoneTree::Zone zone;
    std::uint32_t owner = kNoNode;
  };
  static std::vector<OwnedZone> extract_zones(
      const ZoneTree& tree, std::span<const std::uint32_t> members);

  /// Zone tiling ("zone.tiling": the zones partition the whole ID space,
  /// no gap, no overlap) and domain containment ("zone.containment": every
  /// owner's ID lies inside one of its own zones). `level` tags the
  /// violations with the domain's depth.
  void check_zone_list(AuditReport& r, std::span<const OwnedZone> zones,
                       int level) const;

  /// Face-neighbor coverage ("can.face"): every CAN neighbor the partition
  /// demands for a member is present in the link table. With `exact`, any
  /// other link from a member is also a violation (flat CAN keeps nothing
  /// else); Can-Can leaf partitions use exact = false.
  void check_can_links(AuditReport& r, const ZoneTree& tree,
                       std::span<const std::uint32_t> members,
                       int level, bool exact) const;

  /// Intra-group clique completeness for the proximity families
  /// ("group.clique").
  void check_group_cliques(AuditReport& r, const GroupedOverlay& groups) const;

  /// Liveness under an injected FailureSet ("live.degree": every live
  /// node keeps at least one live link-table neighbor; "live.leafset",
  /// when leaf_set > 0: a live successor exists within `leaf_set` steps
  /// clockwise on the global ring — the reach of the leaf-set fallback).
  /// Structure-only: says whether recovery *can* work, not whether a
  /// particular route does.
  void check_liveness(AuditReport& r, const FailureSet& dead,
                      int leaf_set) const;

 private:
  void add_violation(AuditReport& r, std::string check, std::uint32_t node,
                     int level, std::string detail) const;
  void count_checks(AuditReport& r, std::string_view battery,
                    std::uint64_t n) const;

  const OverlayNetwork* net_;
  const LinkTable* links_;
};

}  // namespace canon::audit

#endif  // CANON_AUDIT_AUDITOR_H
