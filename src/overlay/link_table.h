// Per-node out-link adjacency produced by the DHT link builders.
//
// The paper counts only out-degree ("the degree of a node refers to its
// out-degree, and does not count incoming edges"); LinkTable mirrors that.
//
// Lifecycle and CSR invariants
// ----------------------------
// A table is born complete: LinkTable::build() asks a per-node rule for
// each node's out-links, normalizes every row and lays the rows out as a
// flat CSR (compressed sparse row) table:
//
//   offsets_  : node_count() + 1 monotone offsets into the flat arrays;
//               node m's neighbors occupy [offsets_[m], offsets_[m + 1]).
//               Offsets are 32-bit LinkOffset values: even 10^7-node
//               populations carry well under 2^32 links, and the compact
//               type halves the per-node offset footprint (build() throws
//               std::length_error past 2^32 - 1 links).
//   targets_  : all neighbor *indices* (NodeIndex), row by row, each row
//               sorted ascending with no duplicates and no self-links.
//   target_ids_: the NodeId of targets_[k] stored at the same position k,
//               so routers read one contiguous array instead of chasing
//               net.id(nb) per candidate.
//
// The table is then a read-only routing structure. The one sanctioned
// mutation is set_neighbors(), the dynamic-maintenance edit path, which
// splices the CSR arrays in place (O(degree) when the row size is
// unchanged, O(total_links) otherwise) and keeps every invariant above.
//
// build() runs the rule shard by shard on the worker pool, compacting each
// shard's rows into one tightly packed chunk as it goes, so the build holds
// no per-node vectors: peak RSS stays near the final CSR size even at 10^6+
// nodes. Chunks are scattered into the CSR in fixed shard order, so the
// table is byte-identical at every thread count and every shard size.
#ifndef CANON_OVERLAY_LINK_TABLE_H
#define CANON_OVERLAY_LINK_TABLE_H

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/parallel.h"
#include "common/prefetch.h"
#include "common/stats.h"
#include "telemetry/mem_stats.h"

namespace canon {

/// Index into the flat CSR arrays (a link count). 32-bit by design: see
/// the file comment.
using LinkOffset = std::uint32_t;

/// Sorts `row`, drops its duplicates and every self-link of `node`, and
/// throws std::out_of_range if a target is not below `node_count`: the
/// normalization every CSR row goes through.
void normalize_row(std::vector<NodeIndex>& row, NodeIndex node,
                   std::size_t node_count);

/// A read-only CSR link table (set_neighbors() aside). See the file comment.
class LinkTable {
 public:
  /// Appends node `m`'s out-links to `row`, in any order, duplicates and
  /// self-links allowed.
  using RowFn = std::function<void(NodeIndex m, std::vector<NodeIndex>& row)>;
  /// Progress hook: `done` of `shards` shards are compacted.
  using ShardFn = std::function<void(std::size_t done, std::size_t shards)>;

  /// Builds the table over `ids.size()` nodes, where `ids` maps node index
  /// -> NodeId. For every node m, `add_links(m, row)` fills an empty row
  /// that is then normalized (normalize_row). Nodes run in fixed shards of
  /// `shard_nodes` on the worker pool, so `add_links` must be thread-safe
  /// across distinct nodes; each shard's rows are compacted into one chunk
  /// as soon as the shard completes. `on_shard(done, shards)`, when given,
  /// fires after each shard from whichever worker ran it: it must be
  /// thread-safe, must not touch the table and never influences it (the
  /// resource observatory samples the RSS timeline through it,
  /// bench/bench_scale.cc). Throws std::invalid_argument on shard_nodes == 0
  /// and std::out_of_range on a target that is not a node index.
  static LinkTable build(std::span<const NodeId> ids, const RowFn& add_links,
                         std::size_t shard_nodes = kNodeGrain,
                         const ShardFn& on_shard = {});

  std::size_t node_count() const { return ids_.size(); }

  /// Neighbors of `node`, sorted ascending. Defined inline: this is every
  /// router's per-hop access.
  std::span<const NodeIndex> neighbors(NodeIndex node) const {
    return {targets_.data() + offsets_[node],
            static_cast<std::size_t>(offsets_[node + 1] - offsets_[node])};
  }

  /// NodeIds of `node`'s neighbors, aligned with neighbors().
  std::span<const NodeId> neighbor_ids(NodeIndex node) const {
    return {target_ids_.data() + offsets_[node],
            static_cast<std::size_t>(offsets_[node + 1] - offsets_[node])};
  }

  // Raw row views for the interleaved batch probe kernels
  // (overlay/batch_probe.h): row_bounds() plus targets_data()/
  // target_ids_data() together are exactly neighbors()/neighbor_ids()
  // decomposed into reusable pieces.

  /// [begin, end) offsets of `node`'s CSR row.
  std::pair<LinkOffset, LinkOffset> row_bounds(NodeIndex node) const {
    return {offsets_[node], offsets_[node + 1]};
  }
  /// Flat CSR neighbor-index array.
  const NodeIndex* targets_data() const { return targets_.data(); }
  /// Flat inline neighbor-NodeId array.
  const NodeId* target_ids_data() const { return target_ids_.data(); }

  /// Prefetch hooks of the group-prefetching discipline: pull `node`'s
  /// row bounds one round before row_bounds() reads them, then the row's
  /// inline-ID and target payload one round before the greedy scan walks
  /// them. Pure scheduling hints — they never change what any kernel
  /// computes (common/prefetch.h).
  void prefetch_row_bounds(NodeIndex node) const {
    prefetch_ro(offsets_.data() + node);
    prefetch_ro(offsets_.data() + node + 1);
  }
  void prefetch_row_payload(LinkOffset begin, LinkOffset end) const {
    // Degrees are O(log n); cap the touched lines anyway so a pathological
    // row cannot evict more than it hides.
    constexpr int kMaxLines = 16;
    constexpr std::size_t kIdsPerLine = 64 / sizeof(NodeId);
    const NodeId* id = target_ids_.data() + begin;
    const NodeId* id_stop = target_ids_.data() + end;
    for (int line = 0; line < kMaxLines && id < id_stop;
         ++line, id += kIdsPerLine) {
      prefetch_ro(id);
    }
    constexpr std::size_t kTargetsPerLine = 64 / sizeof(NodeIndex);
    const NodeIndex* tgt = targets_.data() + begin;
    const NodeIndex* tgt_stop = targets_.data() + end;
    for (int line = 0; line < kMaxLines && tgt < tgt_stop;
         ++line, tgt += kTargetsPerLine) {
      prefetch_ro(tgt);
    }
  }

  /// True if the directed link from->to exists.
  bool has_link(NodeIndex from, NodeIndex to) const;

  std::size_t degree(NodeIndex node) const {
    return offsets_[node + 1] - offsets_[node];
  }
  std::size_t total_links() const { return targets_.size(); }
  double mean_degree() const;
  Histogram degree_histogram() const;

  /// Replaces node `node`'s neighbor list (used by dynamic maintenance).
  /// The list is normalized (normalize_row) and spliced into the CSR
  /// arrays in place.
  void set_neighbors(NodeIndex node, std::vector<NodeIndex> neighbors);

  /// Structural equality of two tables: same CSR offsets, targets, and
  /// inline ids. The determinism regression tests rely on
  /// this being exact (byte-identical layouts compare equal).
  friend bool operator==(const LinkTable& a, const LinkTable& b);

  /// Test-only backdoor (defined in tests/audit_test.cc): the public API
  /// cannot produce a malformed CSR — set_neighbors() re-sorts — so the
  /// auditor's mutation tests corrupt rows through this hook.
  friend struct LinkTableMutator;

 private:
  LinkTable() = default;

  /// (Re)charges the CSR footprint to the memory accountant
  /// under "link_table.csr" (no-op when none is installed).
  void account_csr();

  std::vector<LinkOffset> offsets_;  // CSR, node_count() + 1
  std::vector<NodeIndex> targets_;   // CSR, flat indices
  std::vector<NodeId> target_ids_;   // CSR, flat NodeIds
  std::vector<NodeId> ids_;          // node index -> NodeId
  telemetry::MemCharge mem_;         // ledger holding for the CSR arrays
};

}  // namespace canon

#endif  // CANON_OVERLAY_LINK_TABLE_H
