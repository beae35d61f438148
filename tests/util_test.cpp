// Unit tests for the util library: rng, strings, bytes, stats, table,
// flat ASN sets, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"
#include "util/errors.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mlp {
namespace {

using util::FlatAsnSet;
using util::ThreadPool;

// --------------------------------------------------------- FlatAsnSet

TEST(FlatAsnSet, EmptyBehaviour) {
  FlatAsnSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.count(1), 0u);
  EXPECT_EQ(s.index_of(1), FlatAsnSet::npos);
  EXPECT_FALSE(s.erase(1));
  EXPECT_EQ(s, FlatAsnSet{});
  EXPECT_TRUE(FlatAsnSet::set_union(s, s).empty());
  EXPECT_TRUE(FlatAsnSet::set_intersection(s, s).empty());
  EXPECT_TRUE(FlatAsnSet::set_difference(s, s).empty());
}

TEST(FlatAsnSet, InsertKeepsSortedUniqueOrder) {
  FlatAsnSet s;
  EXPECT_TRUE(s.insert(30));
  EXPECT_TRUE(s.insert(10));
  EXPECT_TRUE(s.insert(20));
  EXPECT_FALSE(s.insert(20));  // duplicate insert is a no-op
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.values(), (std::vector<std::uint32_t>{10, 20, 30}));
  EXPECT_EQ(s.index_of(10), 0u);
  EXPECT_EQ(s.index_of(20), 1u);
  EXPECT_EQ(s.index_of(30), 2u);
  EXPECT_EQ(s.index_of(15), FlatAsnSet::npos);
  EXPECT_TRUE(s.erase(20));
  EXPECT_FALSE(s.erase(20));
  EXPECT_EQ(s.values(), (std::vector<std::uint32_t>{10, 30}));
}

TEST(FlatAsnSet, ConstructorsNormalise) {
  const FlatAsnSet from_list{5, 3, 5, 1};
  EXPECT_EQ(from_list.values(), (std::vector<std::uint32_t>{1, 3, 5}));
  const FlatAsnSet from_vector(std::vector<std::uint32_t>{9, 7, 9, 7});
  EXPECT_EQ(from_vector.values(), (std::vector<std::uint32_t>{7, 9}));
  const std::set<std::uint32_t> node_set{4, 2, 6};
  const FlatAsnSet from_set = node_set;
  EXPECT_EQ(from_set.values(), (std::vector<std::uint32_t>{2, 4, 6}));
  EXPECT_EQ(from_set, node_set);       // mixed comparison, both directions
  EXPECT_EQ(node_set, from_set);
  const std::vector<std::uint32_t> raw{8, 8, 2};
  const FlatAsnSet from_iters(raw.begin(), raw.end());
  EXPECT_EQ(from_iters.values(), (std::vector<std::uint32_t>{2, 8}));
}

TEST(FlatAsnSet, DisjointAlgebra) {
  const FlatAsnSet a{1, 3, 5};
  const FlatAsnSet b{2, 4, 6};
  EXPECT_EQ(FlatAsnSet::set_union(a, b), (FlatAsnSet{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(FlatAsnSet::set_intersection(a, b).empty());
  EXPECT_EQ(FlatAsnSet::set_difference(a, b), a);
  EXPECT_EQ(FlatAsnSet::set_difference(b, a), b);
}

TEST(FlatAsnSet, SubsetAlgebra) {
  const FlatAsnSet all{1, 2, 3, 4, 5};
  const FlatAsnSet sub{2, 4};
  EXPECT_EQ(FlatAsnSet::set_union(all, sub), all);
  EXPECT_EQ(FlatAsnSet::set_intersection(all, sub), sub);
  EXPECT_EQ(FlatAsnSet::set_difference(all, sub), (FlatAsnSet{1, 3, 5}));
  EXPECT_TRUE(FlatAsnSet::set_difference(sub, all).empty());
}

TEST(FlatAsnSet, OverlappingAlgebra) {
  const FlatAsnSet a{1, 2, 3};
  const FlatAsnSet b{2, 3, 4};
  EXPECT_EQ(FlatAsnSet::set_union(a, b), (FlatAsnSet{1, 2, 3, 4}));
  EXPECT_EQ(FlatAsnSet::set_intersection(a, b), (FlatAsnSet{2, 3}));
  EXPECT_EQ(FlatAsnSet::set_difference(a, b), (FlatAsnSet{1}));
  EXPECT_EQ(FlatAsnSet::set_difference(b, a), (FlatAsnSet{4}));
}

TEST(FlatAsnSet, MatchesNodeSetOnRandomisedOperations) {
  Rng rng(77);
  FlatAsnSet flat;
  std::set<std::uint32_t> reference;
  for (int round = 0; round < 2000; ++round) {
    const auto value = static_cast<std::uint32_t>(rng.uniform(0, 200));
    if (rng.chance(0.3)) {
      EXPECT_EQ(flat.erase(value), reference.erase(value) == 1);
    } else {
      EXPECT_EQ(flat.insert(value), reference.insert(value).second);
    }
    EXPECT_EQ(flat.contains(value), reference.count(value) == 1);
  }
  EXPECT_EQ(flat, reference);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform(0, 1000000) == b.uniform(0, 1000000)) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(6, 5), InvalidArgument);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(123);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ParetoRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.pareto(1, 1000, 1.1);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
  }
}

TEST(Rng, ParetoIsHeavyTailedTowardLow) {
  Rng rng(9);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    if (rng.pareto(1, 1000, 1.5) <= 3) ++low;
  // A bounded Pareto with alpha 1.5 concentrates most mass at small values.
  EXPECT_GT(low, n / 2);
}

TEST(Rng, ParetoRejectsBadArgs) {
  Rng rng(9);
  EXPECT_THROW(rng.pareto(0, 10, 1.0), InvalidArgument);
  EXPECT_THROW(rng.pareto(5, 4, 1.0), InvalidArgument);
  EXPECT_THROW(rng.pareto(1, 10, 0.0), InvalidArgument);
}

TEST(Rng, ZipfBoundsAndSkew) {
  Rng rng(11);
  int first = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    auto v = rng.zipf(100, 1.0);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
    if (v == 1) ++first;
  }
  EXPECT_GT(first, n / 20);  // rank 1 must be far above uniform (1%)
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[1]), 3.0, 0.5);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(13);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), InvalidArgument);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), InvalidArgument);
}

TEST(Rng, PickAndSample) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5};
  for (int i = 0; i < 50; ++i) {
    int x = rng.pick(v);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 5);
  }
  auto s = rng.sample(v, 3);
  EXPECT_EQ(s.size(), 3u);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(rng.sample(v, 99).size(), v.size());
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(99);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  Rng a2 = Rng(99).fork(1);
  EXPECT_EQ(a.uniform(0, 1 << 30), a2.uniform(0, 1 << 30));
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform(0, 1 << 30) == b.uniform(0, 1 << 30)) ++same;
  EXPECT_LT(same, 5);
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a::b:", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  auto parts = split_ws("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, SplitWsEmptyInput) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   \t\n ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, IequalsAndLower) {
  EXPECT_TRUE(iequals("DE-CIX", "de-cix"));
  EXPECT_FALSE(iequals("DE-CIX", "de-cix "));
  EXPECT_EQ(to_lower("AS-Set"), "as-set");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Strings, ParseU32Bounds) {
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_u32("4294967296"));
}

// ---------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0);
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(Bytes, SubReaderConsumesExactly) {
  ByteWriter w;
  w.u32(0x01020304);
  w.u8(0x99);
  ByteReader r(w.data());
  ByteReader sub = r.sub(4);
  EXPECT_EQ(sub.u16(), 0x0102);
  EXPECT_EQ(sub.u16(), 0x0304);
  EXPECT_TRUE(sub.done());
  EXPECT_EQ(r.u8(), 0x99);
}

TEST(Bytes, PlaceholderPatch) {
  ByteWriter w;
  auto off = w.placeholder(2);
  w.u8(0x77);
  w.patch_u16(off, 0xbeef);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u8(), 0x77);
  EXPECT_THROW(w.patch_u16(2, 1), InvalidArgument);
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanMinMaxPercentile) {
  EmpiricalDistribution d;
  for (double x : {1.0, 2.0, 3.0, 4.0}) d.add(x);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 4.0);
  EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(d.percentile(100), 4.0);
  EXPECT_DOUBLE_EQ(d.percentile(50), 2.5);
}

TEST(Stats, EmptyDistributionThrows) {
  EmpiricalDistribution d;
  EXPECT_THROW(d.mean(), InvalidArgument);
  EXPECT_THROW(d.percentile(50), InvalidArgument);
}

TEST(Stats, Fractions) {
  EmpiricalDistribution d;
  for (double x : {1.0, 1.0, 2.0, 5.0}) d.add(x);
  EXPECT_DOUBLE_EQ(d.fraction_at_most(1.0), 0.5);
  EXPECT_DOUBLE_EQ(d.fraction_at_least(2.0), 0.5);
  EXPECT_DOUBLE_EQ(d.fraction_at_most(10.0), 1.0);
}

TEST(Stats, CdfAndCcdfConsistency) {
  EmpiricalDistribution d;
  for (double x : {1.0, 1.0, 2.0, 3.0}) d.add(x);
  auto cdf = d.cdf();
  ASSERT_EQ(cdf.size(), 3u);  // distinct values 1, 2, 3
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
  auto ccdf = d.ccdf();
  for (std::size_t i = 0; i < ccdf.size(); ++i)
    EXPECT_DOUBLE_EQ(ccdf[i].fraction, 1.0 - cdf[i].fraction);
}

TEST(Stats, HistogramTotals) {
  Histogram h;
  h.add(1);
  h.add(1, 2);
  h.add(-5);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.buckets().at(1), 3u);
  EXPECT_EQ(h.buckets().at(-5), 1u);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"IXP", "Links"});
  t.add_row({"DE-CIX", "54082"});
  t.add_row({"BIX.BG", "950"});
  const std::string out = t.render();
  EXPECT_NE(out.find("IXP"), std::string::npos);
  EXPECT_NE(out.find("54082"), std::string::npos);
  // Numeric column is right-aligned: "950" must be preceded by spaces.
  EXPECT_NE(out.find("  950"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(206667), "206,667");
  EXPECT_EQ(fmt_percent(0.984), "98.4%");
  EXPECT_EQ(fmt_percent(0.5, 0), "50%");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

// --------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, FifoStartOrderWithOneWorker) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ResolveDefaults) {
  EXPECT_EQ(ThreadPool::resolve(3), 3u);
  EXPECT_GE(ThreadPool::resolve(0), 1u);
}

TEST(ThreadPool, ThrowingTaskSurfacesFromWaitIdleNotTerminate) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  // Tasks after the throwing one still run: the worker survives, and the
  // in-flight count was released by the RAII guard (no wedged wait_idle).
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
  try {
    pool.wait_idle();
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  EXPECT_EQ(ran.load(), 8);
  // The error was consumed: the pool is reusable and clean afterwards.
  pool.submit([&ran] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPool, FirstOfSeveralEscapedExceptionsWins) {
  ThreadPool pool(1);  // single worker serializes the tasks
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  pool.wait_idle();  // later losers are dropped, not replayed
}

}  // namespace
}  // namespace mlp
