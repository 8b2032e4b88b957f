#include "overlay/link_table.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "telemetry/metrics.h"

namespace canon {

namespace {

/// Guards the 32-bit CSR offsets: link counts must fit LinkOffset.
LinkOffset checked_offset(std::size_t links) {
  if (links > std::numeric_limits<LinkOffset>::max()) {
    throw std::length_error(
        "LinkTable: more than 2^32 - 1 links (LinkOffset overflow)");
  }
  return static_cast<LinkOffset>(links);
}

}  // namespace

void normalize_row(std::vector<NodeIndex>& row, NodeIndex node,
                   std::size_t node_count) {
  std::sort(row.begin(), row.end());
  row.erase(std::unique(row.begin(), row.end()), row.end());
  row.erase(std::remove(row.begin(), row.end(), node), row.end());
  if (!row.empty() && row.back() >= node_count) {
    throw std::out_of_range("LinkTable: link target out of range");
  }
}

LinkTable LinkTable::build(std::span<const NodeId> ids, const RowFn& add_links,
                           std::size_t shard_nodes, const ShardFn& on_shard) {
  if (shard_nodes == 0) {
    throw std::invalid_argument("LinkTable::build: shard_nodes == 0");
  }
  LinkTable out;
  out.ids_.assign(ids.begin(), ids.end());
  const std::size_t n = ids.size();
  const std::size_t shards = (n + shard_nodes - 1) / shard_nodes;
  // Per-shard compact chunks: flat normalized targets plus per-node row
  // sizes. A shard reuses one row vector for all of its nodes, so the build
  // never holds a vector per node.
  struct Chunk {
    std::vector<NodeIndex> targets;
    std::vector<LinkOffset> sizes;
  };
  std::vector<Chunk> chunks(shards);
  std::atomic<std::size_t> shards_done{0};
  parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
    std::vector<NodeIndex> row;
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t lo = s * shard_nodes;
      const std::size_t hi = std::min(n, lo + shard_nodes);
      Chunk& chunk = chunks[s];
      chunk.sizes.reserve(hi - lo);
      for (std::size_t m = lo; m < hi; ++m) {
        row.clear();
        add_links(static_cast<NodeIndex>(m), row);
        normalize_row(row, static_cast<NodeIndex>(m), n);
        chunk.sizes.push_back(checked_offset(row.size()));
        chunk.targets.insert(chunk.targets.end(), row.begin(), row.end());
      }
      if (on_shard) {
        on_shard(shards_done.fetch_add(1, std::memory_order_relaxed) + 1,
                 shards);
      }
    }
  });
  // Ledger charge for the compacted chunks, in fixed shard order on the
  // calling thread (the in-flight rows, one per worker, are not
  // attributed; the RSS timeline measures them). Held until the chunks are
  // freed at return, overlapping the CSR charge below exactly as the
  // allocations do.
  telemetry::MemScope chunk_scope("overlay.stream_chunks");
  for (const Chunk& chunk : chunks) {
    chunk_scope.add(telemetry::vector_bytes(chunk.targets) +
                    telemetry::vector_bytes(chunk.sizes));
  }
  // Serial prefix sum over the per-node sizes (fixed shard order), then a
  // sharded scatter of the chunks into the final CSR arrays.
  out.offsets_.assign(n + 1, 0);
  std::size_t total = 0;
  {
    std::size_t m = 0;
    for (const Chunk& chunk : chunks) {
      for (const LinkOffset size : chunk.sizes) {
        total += size;
        out.offsets_[++m] = checked_offset(total);
      }
    }
  }
  out.targets_.resize(total);
  out.target_ids_.resize(total);
  parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      Chunk& chunk = chunks[s];
      std::size_t k = out.offsets_[s * shard_nodes];
      for (const NodeIndex to : chunk.targets) {
        out.targets_[k] = to;
        out.target_ids_[k] = out.ids_[to];
        ++k;
      }
      chunk.targets.clear();
      chunk.targets.shrink_to_fit();
    }
  });
  out.account_csr();
  if (telemetry::Gauge* g = telemetry::maybe_gauge("build.threads")) {
    g->set(parallel_threads());
  }
  return out;
}

void LinkTable::account_csr() {
  mem_.reset("link_table.csr",
             telemetry::vector_bytes(offsets_) +
                 telemetry::vector_bytes(targets_) +
                 telemetry::vector_bytes(target_ids_) +
                 telemetry::vector_bytes(ids_));
}

bool LinkTable::has_link(NodeIndex from, NodeIndex to) const {
  const auto row = neighbors(from);
  return std::binary_search(row.begin(), row.end(), to);
}

double LinkTable::mean_degree() const {
  if (node_count() == 0) return 0;
  return static_cast<double>(total_links()) /
         static_cast<double>(node_count());
}

Histogram LinkTable::degree_histogram() const {
  Histogram h;
  for (NodeIndex i = 0; i < node_count(); ++i) {
    h.add(static_cast<std::int64_t>(degree(i)));
  }
  return h;
}

void LinkTable::set_neighbors(NodeIndex node,
                              std::vector<NodeIndex> neighbors) {
  if (node >= node_count()) {
    throw std::out_of_range("LinkTable::set_neighbors: node out of range");
  }
  normalize_row(neighbors, node, node_count());
  // CSR edit path: splice the row in place. Equal-size rewrites touch only
  // the row; size changes shift the tail of the flat arrays once.
  const std::size_t begin = offsets_[node];
  const std::size_t old_size = offsets_[node + 1] - begin;
  const std::size_t new_size = neighbors.size();
  if (new_size > old_size) {
    checked_offset(targets_.size() + (new_size - old_size));
  }
  const auto row_begin =
      targets_.begin() + static_cast<std::ptrdiff_t>(begin);
  if (new_size > old_size) {
    targets_.insert(row_begin + static_cast<std::ptrdiff_t>(old_size),
                    new_size - old_size, 0);
    target_ids_.insert(
        target_ids_.begin() + static_cast<std::ptrdiff_t>(begin + old_size),
        new_size - old_size, 0);
  } else if (new_size < old_size) {
    targets_.erase(row_begin + static_cast<std::ptrdiff_t>(new_size),
                   row_begin + static_cast<std::ptrdiff_t>(old_size));
    target_ids_.erase(
        target_ids_.begin() + static_cast<std::ptrdiff_t>(begin + new_size),
        target_ids_.begin() + static_cast<std::ptrdiff_t>(begin + old_size));
  }
  for (std::size_t k = 0; k < new_size; ++k) {
    targets_[begin + k] = neighbors[k];
    target_ids_[begin + k] = ids_[neighbors[k]];
  }
  if (new_size != old_size) {
    const std::ptrdiff_t delta = static_cast<std::ptrdiff_t>(new_size) -
                                 static_cast<std::ptrdiff_t>(old_size);
    for (std::size_t m = node + 1; m <= node_count(); ++m) {
      offsets_[m] = static_cast<LinkOffset>(
          static_cast<std::ptrdiff_t>(offsets_[m]) + delta);
    }
    // Keep the ledger holding in step with the spliced arrays; tables
    // built before the accountant was installed stay off the ledger.
    if (mem_.held() != 0) account_csr();
  }
}

bool operator==(const LinkTable& a, const LinkTable& b) {
  return a.offsets_ == b.offsets_ && a.targets_ == b.targets_ &&
         a.target_ids_ == b.target_ids_;
}

}  // namespace canon
