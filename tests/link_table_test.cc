// The link table's one build path and the tables it produces.
//
// LinkTable::build must equal a brute-force normalization of the same rows
// (sorted, deduplicated, self-links dropped) at every shard size and thread
// count, and golden CSR digests pin every registry family's table — row
// offsets, targets and inline neighbor IDs — at 512 nodes on a 3-level
// hierarchy and on a flat population, so a rewrite of the construction path
// cannot move a single link. The CI ThreadSanitizer job runs this binary.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/family_registry.h"
#include "overlay/link_table.h"
#include "overlay/population.h"

namespace canon {
namespace {

constexpr std::uint64_t kSeed = 20261019;

/// Restores the default thread count even if an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

/// Arbitrary, unordered node IDs for `n` nodes.
std::vector<NodeId> test_ids(std::size_t n) {
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = (i * 0x9e3779b97f4a7c15ULL) >> 8;
  return ids;
}

/// Raw rows with duplicates and self-links: node m gets up to 12 targets
/// drawn from a small window around m, so repeats are common.
std::vector<std::vector<NodeIndex>> raw_rows(std::size_t n) {
  std::vector<std::vector<NodeIndex>> rows(n);
  Rng rng(kSeed);
  for (std::size_t m = 0; m < n; ++m) {
    const std::size_t count = rng.uniform(13);
    for (std::size_t k = 0; k < count; ++k) {
      rows[m].push_back(
          static_cast<NodeIndex>((m + rng.uniform(9) + n - 4) % n));
    }
  }
  return rows;
}

/// Checks `t` row by row against a std::set normalization of `rows`.
void expect_matches_brute_force(
    const LinkTable& t, const std::vector<NodeId>& ids,
    const std::vector<std::vector<NodeIndex>>& rows) {
  ASSERT_EQ(t.node_count(), ids.size());
  std::size_t total = 0;
  for (NodeIndex m = 0; m < ids.size(); ++m) {
    std::set<NodeIndex> want(rows[m].begin(), rows[m].end());
    want.erase(m);
    const auto got = t.neighbors(m);
    ASSERT_EQ(std::vector<NodeIndex>(got.begin(), got.end()),
              std::vector<NodeIndex>(want.begin(), want.end()))
        << "node " << m;
    const auto got_ids = t.neighbor_ids(m);
    ASSERT_EQ(got_ids.size(), got.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got_ids[k], ids[got[k]]) << "node " << m << " slot " << k;
    }
    EXPECT_EQ(t.degree(m), want.size());
    total += want.size();
  }
  EXPECT_EQ(t.total_links(), total);
}

TEST(LinkTableBuild, MatchesBruteForceAtEveryShardSizeAndThreadCount) {
  ThreadGuard guard;
  constexpr std::size_t kNodes = 1000;
  const auto ids = test_ids(kNodes);
  const auto rows = raw_rows(kNodes);
  const LinkTable::RowFn copy_row = [&](NodeIndex m,
                                        std::vector<NodeIndex>& row) {
    row.insert(row.end(), rows[m].begin(), rows[m].end());
  };
  set_parallel_threads(1);
  const LinkTable reference = LinkTable::build(ids, copy_row);
  expect_matches_brute_force(reference, ids, rows);
  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    for (const std::size_t shard : {1u, 7u, 64u, 8192u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " shard " +
                   std::to_string(shard));
      std::atomic<std::size_t> calls{0};
      const LinkTable t = LinkTable::build(
          ids, copy_row, shard,
          [&](std::size_t, std::size_t shards) {
            EXPECT_EQ(shards, (kNodes + shard - 1) / shard);
            calls.fetch_add(1, std::memory_order_relaxed);
          });
      EXPECT_EQ(calls.load(), (kNodes + shard - 1) / shard);
      expect_matches_brute_force(t, ids, rows);
      EXPECT_TRUE(t == reference);
    }
  }
}

TEST(LinkTableBuild, EmptyAndSingleNodeTables) {
  const LinkTable empty = LinkTable::build(
      {}, [](NodeIndex, std::vector<NodeIndex>&) { FAIL(); });
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.total_links(), 0u);
  EXPECT_EQ(empty.mean_degree(), 0.0);

  const std::vector<NodeId> one = {42};
  const LinkTable single =
      LinkTable::build(one, [](NodeIndex m, std::vector<NodeIndex>& row) {
        row.assign({m, m});  // only self-links: all dropped
      });
  EXPECT_EQ(single.node_count(), 1u);
  EXPECT_EQ(single.degree(0), 0u);
  EXPECT_TRUE(single.neighbors(0).empty());
  EXPECT_TRUE(single.neighbor_ids(0).empty());
}

TEST(LinkTableBuild, OutOfRangeTargetThrows) {
  ThreadGuard guard;
  const auto ids = test_ids(100);
  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    EXPECT_THROW(LinkTable::build(
                     ids,
                     [](NodeIndex m, std::vector<NodeIndex>& row) {
                       row.push_back(m == 77 ? 100 : 0);
                     },
                     8),
                 std::out_of_range)
        << threads;
  }
  EXPECT_THROW(
      LinkTable::build(ids, [](NodeIndex, std::vector<NodeIndex>&) {}, 0),
      std::invalid_argument);
}

TEST(LinkTableBuild, SetNeighborsNormalizesLikeBuild) {
  constexpr std::size_t kNodes = 64;
  const auto ids = test_ids(kNodes);
  const auto rows = raw_rows(kNodes);
  LinkTable t =
      LinkTable::build(ids, [](NodeIndex, std::vector<NodeIndex>&) {});
  for (NodeIndex m = 0; m < kNodes; ++m) t.set_neighbors(m, rows[m]);
  expect_matches_brute_force(t, ids, rows);
  const LinkTable built =
      LinkTable::build(ids, [&](NodeIndex m, std::vector<NodeIndex>& row) {
        row = rows[m];
      });
  EXPECT_TRUE(t == built);
  EXPECT_THROW(t.set_neighbors(3, {kNodes}), std::out_of_range);
  EXPECT_THROW(t.set_neighbors(kNodes, {}), std::out_of_range);
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Digest of the whole CSR: the node count, every row's end offset, then
/// every target index and inline NodeId in row order.
std::string csr_digest(const LinkTable& links) {
  Digest d;
  d.add(links.node_count());
  std::uint64_t offset = 0;
  for (NodeIndex m = 0; m < links.node_count(); ++m) {
    offset += links.degree(m);
    d.add(offset);
  }
  for (NodeIndex m = 0; m < links.node_count(); ++m) {
    for (const NodeIndex v : links.neighbors(m)) d.add(v);
  }
  for (NodeIndex m = 0; m < links.node_count(); ++m) {
    for (const NodeId id : links.neighbor_ids(m)) d.add(id);
  }
  return d.hex();
}

OverlayNetwork make_net(int levels) {
  PopulationSpec spec;
  spec.node_count = 512;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  Rng rng(kSeed);
  return make_population(spec, rng);
}

struct GoldenCsr {
  const char* family;
  const char* hierarchical;  ///< 512 nodes, 3 levels
  const char* flat;          ///< 512 nodes, 1 level
};

TEST(LinkTableGolden, EveryFamilyCsrDigest) {
  constexpr std::array<GoldenCsr, 13> kGolden = {{
      {"chord", "dd788af2b01a2fee", "dd788af2b01a2fee"},
      {"symphony", "ac8f7dc7ec819e15", "ac8f7dc7ec819e15"},
      {"nondet_chord", "62192b99ac0c57f3", "62192b99ac0c57f3"},
      {"kademlia", "7308b0d87705a03c", "7308b0d87705a03c"},
      {"can", "38e884986f6b95b5", "38e884986f6b95b5"},
      {"crescendo", "4f6a45ea702975ee", "dd788af2b01a2fee"},
      {"clique_crescendo", "c289ea3fe975a256", "e11b70b432c1d70f"},
      {"cacophony", "b94d7f36a82dee28", "ac8f7dc7ec819e15"},
      {"nondet_crescendo", "5f548c3d85c864cc", "62192b99ac0c57f3"},
      {"kandy", "36dbc869d27f5dcb", "7308b0d87705a03c"},
      {"cancan", "4569fd045874e791", "38e884986f6b95b5"},
      {"chord_prox", "726cc6b557ed5b44", "726cc6b557ed5b44"},
      {"crescendo_prox", "95c83784bf9371e9", "726cc6b557ed5b44"},
  }};
  ASSERT_EQ(registry::families().size(), kGolden.size());
  const auto deep = make_net(3);
  const auto flat = make_net(1);
  for (const auto& golden : kGolden) {
    EXPECT_EQ(csr_digest(registry::build_family(deep, golden.family, kSeed)),
              golden.hierarchical)
        << golden.family << " (3 levels)";
    EXPECT_EQ(csr_digest(registry::build_family(flat, golden.family, kSeed)),
              golden.flat)
        << golden.family << " (flat)";
  }
}

}  // namespace
}  // namespace canon
