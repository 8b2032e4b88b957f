// Unit tests for the common substrate: ID spaces, metrics, RNG, Zipf
// sampling and statistics accumulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/zipf.h"

namespace canon {
namespace {

TEST(IdSpace, MaskAndWrap) {
  const IdSpace s8(8);
  EXPECT_EQ(s8.bits(), 8);
  EXPECT_EQ(s8.mask(), 0xFFu);
  EXPECT_EQ(s8.wrap(0x123), 0x23u);
  EXPECT_DOUBLE_EQ(s8.size(), 256.0);

  const IdSpace s64(64);
  EXPECT_EQ(s64.mask(), ~NodeId{0});
  EXPECT_EQ(s64.wrap(~NodeId{0}), ~NodeId{0});
}

TEST(IdSpace, RejectsBadBitWidths) {
  EXPECT_THROW(IdSpace(0), std::invalid_argument);
  EXPECT_THROW(IdSpace(65), std::invalid_argument);
  EXPECT_THROW(IdSpace(-3), std::invalid_argument);
}

TEST(IdSpace, RingDistance) {
  const IdSpace s(4);  // [0, 16)
  EXPECT_EQ(s.ring_distance(3, 7), 4u);
  EXPECT_EQ(s.ring_distance(7, 3), 12u);  // wraps
  EXPECT_EQ(s.ring_distance(5, 5), 0u);
  EXPECT_EQ(s.ring_distance(15, 0), 1u);
  EXPECT_EQ(s.ring_distance(0, 15), 15u);
}

TEST(IdSpace, RingDistanceAsymmetric) {
  const IdSpace s(16);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const NodeId a = s.wrap(rng());
    const NodeId b = s.wrap(rng());
    if (a == b) continue;
    EXPECT_EQ(s.ring_distance(a, b) + s.ring_distance(b, a),
              NodeId{1} << 16);
  }
}

TEST(IdSpace, XorDistanceSymmetricAndIdentity) {
  const IdSpace s(32);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const NodeId a = s.wrap(rng());
    const NodeId b = s.wrap(rng());
    EXPECT_EQ(s.xor_distance(a, b), s.xor_distance(b, a));
    EXPECT_EQ(s.xor_distance(a, a), 0u);
  }
}

TEST(IdSpace, Advance) {
  const IdSpace s(4);
  EXPECT_EQ(s.advance(14, 3), 1u);
  EXPECT_EQ(s.advance(0, 15), 15u);
}

TEST(Bits, FloorCeilLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1025), 11);
}

// Both stay usable in constant expressions.
static_assert(floor_log2(0) == 0 && floor_log2(std::uint64_t{1} << 40) == 40);
static_assert(ceil_log2(0) == 0 && ceil_log2((std::uint64_t{1} << 40) + 1) == 41);

TEST(Bits, Log2AgreesWithShiftLoopAtEveryPowerOfTwo) {
  // The shift-loop definitions the bit_width forms replace.
  const auto floor_ref = [](std::uint64_t x) {
    int r = 0;
    while (x >>= 1) ++r;
    return r;
  };
  const auto ceil_ref = [&](std::uint64_t x) {
    return x <= 1 ? 0 : floor_ref(x - 1) + 1;
  };
  std::vector<std::uint64_t> xs = {0, 1, std::uint64_t{1} << 63,
                                   ~std::uint64_t{0}};
  for (int k = 1; k < 64; ++k) {
    xs.push_back(std::uint64_t{1} << k);
    xs.push_back((std::uint64_t{1} << k) - 1);
    xs.push_back((std::uint64_t{1} << k) + 1);
  }
  for (const std::uint64_t x : xs) {
    EXPECT_EQ(floor_log2(x), floor_ref(x)) << x;
    EXPECT_EQ(ceil_log2(x), ceil_ref(x)) << x;
  }
  EXPECT_EQ(floor_log2(0), 0);
  EXPECT_EQ(ceil_log2(0), 0);
  EXPECT_EQ(floor_log2(std::uint64_t{1} << 63), 63);
  EXPECT_EQ(ceil_log2(std::uint64_t{1} << 63), 63);
  EXPECT_EQ(floor_log2(~std::uint64_t{0}), 63);
  EXPECT_EQ(ceil_log2(~std::uint64_t{0}), 64);
}

TEST(IdToHex, FormatsFixedWidth) {
  EXPECT_EQ(id_to_hex(0x1A, 8), "0x1a");
  EXPECT_EQ(id_to_hex(0x1A, 16), "0x001a");
  EXPECT_EQ(id_to_hex(0, 32), "0x00000000");
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    const auto v = rng.uniform_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
  EXPECT_THROW(rng.uniform_in(3, 2), std::invalid_argument);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform(8)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 / 5);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    mean += x;
  }
  EXPECT_NEAR(mean / 10000, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(99);
  Rng forked = a.fork(1);
  Rng a2(99);
  // A fork must not replay the parent stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (forked() == a2());
  EXPECT_LT(same, 3);
}

TEST(SampleUniqueIds, UniqueAndInRange) {
  Rng rng(3);
  const IdSpace space(16);
  const auto ids = sample_unique_ids(1000, space, rng);
  EXPECT_EQ(ids.size(), 1000u);
  std::set<NodeId> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 1000u);
  for (const NodeId id : ids) EXPECT_LE(id, space.mask());
}

TEST(SampleUniqueIds, RejectsOverfullSpace) {
  Rng rng(3);
  EXPECT_THROW(sample_unique_ids(200, IdSpace(8), rng),
               std::invalid_argument);
}

TEST(Zipf, UniformWhenThetaZero) {
  ZipfSampler z(4, 0.0);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(z.pmf(k), 0.25, 1e-12);
}

TEST(Zipf, MassDecreasesWithRank) {
  ZipfSampler z(10, 1.25);
  for (std::size_t k = 1; k < 10; ++k) EXPECT_LT(z.pmf(k), z.pmf(k - 1));
  double total = 0;
  for (std::size_t k = 0; k < 10; ++k) total += z.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SampleMatchesPmf) {
  ZipfSampler z(5, 1.25);
  Rng rng(17);
  std::vector<int> counts(5, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[z.sample(rng)];
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws, z.pmf(k), 0.01);
  }
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -1.0), std::invalid_argument);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, EmptyIsWellDefined) {
  const Summary s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(Summary, MergeMatchesCombined) {
  Summary a;
  Summary b;
  Summary all;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.uniform_double();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Summary, MergeEmptyIsIdentity) {
  // empty ⊕ empty stays empty
  Summary a;
  a.merge(Summary{});
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(std::isnan(a.min()));

  // empty ⊕ full adopts the full side exactly (shard 0 of a batch may be
  // the only one with samples)
  Summary full;
  for (const double x : {3.0, 1.0, 4.0}) full.add(x);
  a.merge(full);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), full.mean());
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.variance(), full.variance());

  // full ⊕ empty is a no-op
  Summary b = full;
  b.merge(Summary{});
  EXPECT_EQ(b.count(), full.count());
  EXPECT_DOUBLE_EQ(b.sum(), full.sum());
  EXPECT_DOUBLE_EQ(b.min(), full.min());
  EXPECT_DOUBLE_EQ(b.max(), full.max());
}

TEST(Summary, MergePropagatesMinMax) {
  // The merged extrema must equal the extrema of the union, wherever the
  // min/max samples land across the two halves.
  Summary lo;
  Summary hi;
  for (const double x : {5.0, -2.0, 7.0}) lo.add(x);
  for (const double x : {100.0, 0.5}) hi.add(x);
  lo.merge(hi);
  EXPECT_DOUBLE_EQ(lo.min(), -2.0);
  EXPECT_DOUBLE_EQ(lo.max(), 100.0);

  Summary sequential;
  for (const double x : {5.0, -2.0, 7.0, 100.0, 0.5}) sequential.add(x);
  EXPECT_DOUBLE_EQ(lo.mean(), sequential.mean());
  EXPECT_DOUBLE_EQ(lo.sum(), sequential.sum());
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h;
  h.add(1, 3);
  h.add(5, 1);
  h.add(2, 6);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.count_at(2), 6u);
  EXPECT_DOUBLE_EQ(h.pmf(5), 0.1);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 5);
  EXPECT_NEAR(h.mean(), (3 * 1 + 6 * 2 + 5) / 10.0, 1e-12);
  EXPECT_EQ(h.quantile(0.5), 2);
  EXPECT_EQ(h.quantile(1.0), 5);
}

TEST(Percentiles, NearestRank) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100);
  EXPECT_NEAR(p.quantile(0.5), 50, 1.0);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(TextTable, AlignsAndValidates) {
  TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("a"), std::string::npos);
  EXPECT_NE(os.str().find("1"), std::string::npos);
}


TEST(Percentiles, AddAfterQuantileStaysCorrect) {
  Percentiles p;
  p.add(10);
  p.add(20);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 20);
  // Adding out-of-order samples after a query must re-sort.
  p.add(5);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 5);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 20);
}

}  // namespace
}  // namespace canon
