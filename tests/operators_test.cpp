#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "scihadoop/operators.hpp"
#include "support/frozen_median.hpp"

namespace sidr::sh {
namespace {

/// Collects emissions from a StructuralMapper for inspection.
class CapturingContext final : public mr::MapContext {
 public:
  void emit(const nd::Coord& key, mr::Value value,
            std::uint64_t represents) override {
    records.push_back(mr::KeyValue{key, std::move(value), represents});
  }
  std::vector<mr::KeyValue> records;
};

StructuralQuery makeQuery(OperatorKind op, nd::Coord eshape,
                          double threshold = 0.0) {
  StructuralQuery q;
  q.op = op;
  q.extractionShape = eshape;
  q.filterThreshold = threshold;
  return q;
}

TEST(StructuralMapper, CombinesDistributivePerCell) {
  StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2, 2});
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{4, 4});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  // Feed one full cell (4 values) and part of another (2 values).
  mapper.map(nd::Coord{0, 0}, 1.0, ctx);
  mapper.map(nd::Coord{0, 1}, 2.0, ctx);
  mapper.map(nd::Coord{1, 0}, 3.0, ctx);
  mapper.map(nd::Coord{1, 1}, 4.0, ctx);
  mapper.map(nd::Coord{0, 2}, 10.0, ctx);
  mapper.map(nd::Coord{1, 2}, 20.0, ctx);
  EXPECT_TRUE(ctx.records.empty()) << "combining mapper buffers until finish";
  mapper.finish(ctx);
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_EQ(ctx.records[0].key, (nd::Coord{0, 0}));
  EXPECT_EQ(ctx.records[0].represents, 4u);
  EXPECT_DOUBLE_EQ(ctx.records[0].value.asPartial().mean(), 2.5);
  EXPECT_EQ(ctx.records[1].key, (nd::Coord{0, 1}));
  EXPECT_EQ(ctx.records[1].represents, 2u);
  EXPECT_DOUBLE_EQ(ctx.records[1].value.asPartial().sum, 30.0);
}

TEST(StructuralMapper, MedianShipsFullLists) {
  StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{3});
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{6});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  for (nd::Index i = 0; i < 6; ++i) {
    mapper.map(nd::Coord{i}, static_cast<double>(i * i), ctx);
  }
  mapper.finish(ctx);
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_EQ(ctx.records[0].value.asList(), (std::vector<double>{0, 1, 4}));
  EXPECT_EQ(ctx.records[1].value.asList(), (std::vector<double>{9, 16, 25}));
}

TEST(StructuralMapper, FilterEmitsEmptyListsWithCounts) {
  // Cells with no survivors still emit an (empty) record so that the
  // count annotation covers every consumed input pair.
  StructuralQuery q = makeQuery(OperatorKind::kFilter, nd::Coord{2}, 100.0);
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{4});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  mapper.map(nd::Coord{0}, 1.0, ctx);
  mapper.map(nd::Coord{1}, 2.0, ctx);
  mapper.map(nd::Coord{2}, 500.0, ctx);
  mapper.map(nd::Coord{3}, 3.0, ctx);
  mapper.finish(ctx);
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_TRUE(ctx.records[0].value.asList().empty());
  EXPECT_EQ(ctx.records[0].represents, 2u);
  EXPECT_EQ(ctx.records[1].value.asList(), (std::vector<double>{500.0}));
  EXPECT_EQ(ctx.records[1].represents, 2u);
}

TEST(StructuralMapper, DropsKeysOutsideInstances) {
  StructuralQuery q = makeQuery(OperatorKind::kSum, nd::Coord{2});
  q.stride = nd::Coord{3};
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{7});
  StructuralMapper mapper(q, ex);
  CapturingContext ctx;
  for (nd::Index i = 0; i < 7; ++i) {
    mapper.map(nd::Coord{i}, 1.0, ctx);
  }
  mapper.finish(ctx);
  // Instances at 0-1 and 3-4; keys 2, 5, 6 dropped.
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_EQ(ctx.records[0].represents + ctx.records[1].represents, 4u);
}

TEST(FinalizeCell, AllDistributiveOperators) {
  mr::Partial p;
  p.merge(mr::Partial::ofValue(3.0));
  p.merge(mr::Partial::ofValue(-1.0));
  p.merge(mr::Partial::ofValue(7.0));
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kMean, {}), p, {}).asScalar(),
      3.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kSum, {}), p, {}).asScalar(), 9.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kMin, {}), p, {}).asScalar(),
      -1.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kMax, {}), p, {}).asScalar(), 7.0);
  EXPECT_DOUBLE_EQ(
      finalizeCell(makeQuery(OperatorKind::kCount, {}), p, {}).asScalar(),
      3.0);
}

TEST(FinalizeCell, MedianLowerMiddle) {
  auto q = makeQuery(OperatorKind::kMedian, {});
  EXPECT_DOUBLE_EQ(finalizeCell(q, {}, {5.0}).asScalar(), 5.0);
  EXPECT_DOUBLE_EQ(finalizeCell(q, {}, {3.0, 1.0, 2.0}).asScalar(), 2.0);
  // Even count: lower median.
  EXPECT_DOUBLE_EQ(finalizeCell(q, {}, {4.0, 1.0, 3.0, 2.0}).asScalar(), 2.0);
  EXPECT_THROW(finalizeCell(q, {}, {}), std::logic_error);
}

TEST(FinalizeCell, FilterSortsSurvivors) {
  auto q = makeQuery(OperatorKind::kFilter, {}, 0.0);
  mr::Value v = finalizeCell(q, {}, {3.0, 1.0, 2.0});
  EXPECT_EQ(v.asList(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(finalizeCell(q, {}, {}).asList().empty());
}

TEST(StructuralReducer, MergesPartialsAcrossMaps) {
  StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2});
  StructuralReducer reducer(q);
  mr::Value a = mr::Value::partial(mr::Partial::ofValue(10.0));
  mr::Value b = mr::Value::partial(mr::Partial::ofValue(20.0));
  std::vector<const mr::Value*> values{&a, &b};
  class Ctx final : public mr::ReduceContext {
   public:
    void emit(const nd::Coord& k, mr::Value v) override {
      key = k;
      value = std::move(v);
    }
    nd::Coord key;
    mr::Value value;
  } ctx;
  reducer.reduce(nd::Coord{3}, values, ctx);
  EXPECT_EQ(ctx.key, (nd::Coord{3}));
  EXPECT_DOUBLE_EQ(ctx.value.asScalar(), 15.0);
}

TEST(StructuralReducer, ConcatenatesListsAcrossMaps) {
  StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{2});
  StructuralReducer reducer(q);
  mr::Value a = mr::Value::list({5.0, 1.0});
  mr::Value b = mr::Value::list({3.0});
  std::vector<const mr::Value*> values{&a, &b};
  class Ctx final : public mr::ReduceContext {
   public:
    void emit(const nd::Coord&, mr::Value v) override { value = std::move(v); }
    mr::Value value;
  } ctx;
  reducer.reduce(nd::Coord{0}, values, ctx);
  EXPECT_DOUBLE_EQ(ctx.value.asScalar(), 3.0);  // median of {1,3,5}
}

TEST(SerialOracle, MatchesHandComputedMeans) {
  StructuralQuery q = makeQuery(OperatorKind::kMean, nd::Coord{2, 2});
  ExtractionMap ex(q, nd::Coord{4, 4});
  auto fn = [](const nd::Coord& c) {
    return static_cast<double>(c[0] * 4 + c[1]);
  };
  auto out = runSerialOracle(q, ex, fn);
  ASSERT_EQ(out.size(), 4u);
  // Cell {0,0}: values 0,1,4,5 -> mean 2.5.
  EXPECT_EQ(out[0].key, (nd::Coord{0, 0}));
  EXPECT_DOUBLE_EQ(out[0].value.asScalar(), 2.5);
  // Cell {1,1}: values 10,11,14,15 -> mean 12.5.
  EXPECT_EQ(out[3].key, (nd::Coord{1, 1}));
  EXPECT_DOUBLE_EQ(out[3].value.asScalar(), 12.5);
  for (const auto& kv : out) EXPECT_EQ(kv.represents, 4u);
}

// ---- radix-select median kernel (DESIGN.md section 20) ----

/// Captures the one value a reducer emits.
class LastValueContext final : public mr::ReduceContext {
 public:
  void emit(const nd::Coord&, mr::Value v) override { value = std::move(v); }
  mr::Value value;
};

double kernelMedian(const std::vector<double>& list) {
  std::vector<std::uint64_t> keys(list.size());
  std::transform(list.begin(), list.end(), keys.begin(), orderedKey);
  return lowerMedian(keys);
}

bool containsBits(const std::vector<double>& list, double x) {
  return std::any_of(list.begin(), list.end(), [x](double v) {
    return std::bit_cast<std::uint64_t>(v) == std::bit_cast<std::uint64_t>(x);
  });
}

TEST(MedianKernel, OrderedKeyFollowsTotalOrderAndRoundTrips) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double tiny = std::numeric_limits<double>::denorm_min();
  constexpr double big = std::numeric_limits<double>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Ascending IEEE-754 totalOrder.
  const std::vector<double> ascending{
      -nan, -inf, -big, -1.5, -tiny, -0.0, 0.0, tiny, 1.5, big, inf, nan};
  ASSERT_TRUE(std::signbit(ascending.front()));
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    const std::uint64_t k = orderedKey(ascending[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fromOrderedKey(k)),
              std::bit_cast<std::uint64_t>(ascending[i]));
    if (i > 0) {
      EXPECT_LT(orderedKey(ascending[i - 1]), k) << "index " << i;
    }
  }
}

TEST(MedianKernel, SelectKeyReturnsEveryRank) {
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> base(1000);
  for (auto& k : base) k = rng() >> (rng() % 64);  // mixed magnitudes
  base[3] = base[7] = base[11];                    // ties
  std::vector<std::uint64_t> sorted = base;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 0; k < base.size(); k += 37) {
    std::vector<std::uint64_t> keys = base;
    EXPECT_EQ(selectKey(keys, k), sorted[k]) << "rank " << k;
  }
  std::vector<std::uint64_t> keys = base;
  EXPECT_EQ(selectKey(keys, base.size() - 1), sorted.back());
  EXPECT_THROW(selectKey(keys, base.size()), std::out_of_range);
}

/// Differential against the frozen std::nth_element lower median,
/// which shares no code with the kernel: every input family at every
/// size, 16 seeds. The finalizeCell and StructuralReducer paths (the
/// latter with the cell split over two fetched lists) must agree too,
/// and the result must be one of the inputs, bit for bit.
TEST(MedianKernel, MatchesFrozenNthElement) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double tiny = std::numeric_limits<double>::denorm_min();
  const char* const families[] = {
      "uniform", "duplicates", "all-equal", "negatives", "signed-zeros",
      "infinities", "subnormals", "sorted", "reversed", "sawtooth"};
  const StructuralQuery q = makeQuery(OperatorKind::kMedian, nd::Coord{1});
  StructuralReducer reducer(q);  // one object across cells: buffer reuse
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{720}, std::size_t{100000}}) {
      for (const std::string family : families) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                     std::to_string(n) + " " + family);
        std::vector<double> list(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double u = unit(rng);
          double& v = list[i];
          if (family == "uniform" || family == "sorted" ||
              family == "reversed") {
            v = -1e3 + 2e3 * u;
          } else if (family == "duplicates") {
            v = static_cast<double>(rng() % 5) * 0.5;
          } else if (family == "all-equal") {
            v = 3.25;
          } else if (family == "negatives") {
            v = -1e6 * u;
          } else if (family == "signed-zeros") {
            const double zeros[] = {-0.0, 0.0, -0.0, 1e-300, -1e-300};
            v = zeros[rng() % 5];
          } else if (family == "infinities") {
            const double picks[] = {inf, -inf, 1.0, -1.0};
            v = u < 0.5 ? picks[rng() % 4] : -10.0 + 20.0 * u;
          } else if (family == "subnormals") {
            v = tiny * static_cast<double>(rng() % 1000) *
                (rng() % 2 == 0 ? 1.0 : -1.0);
          } else {  // sawtooth
            v = static_cast<double>(i % 17) * 1.5 - 10.0;
          }
        }
        if (family == "sorted") std::sort(list.begin(), list.end());
        if (family == "reversed") {
          std::sort(list.begin(), list.end(), std::greater<>());
        }
        const double frozen = testsupport::frozenLowerMedian(list);
        const double kernel = kernelMedian(list);
        EXPECT_EQ(kernel, frozen);
        EXPECT_TRUE(containsBits(list, kernel));
        EXPECT_EQ(finalizeCell(q, {}, std::vector<double>(list)).asScalar(),
                  frozen);
        const auto half = static_cast<std::ptrdiff_t>(n / 2);
        mr::Value a = mr::Value::list({list.begin(), list.begin() + half});
        mr::Value b = mr::Value::list({list.begin() + half, list.end()});
        std::vector<const mr::Value*> values{&a, &b};
        LastValueContext ctx;
        reducer.reduce(nd::Coord{0}, values, ctx);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ctx.value.asScalar()),
                  std::bit_cast<std::uint64_t>(kernel));
      }
    }
  }
}

/// std::nth_element has no defined answer here (NaN breaks its strict
/// weak ordering, and -0.0 == +0.0 under `<`); the kernel's is pinned
/// by IEEE-754 totalOrder, so it is the same for every input order.
TEST(MedianKernel, NaNsAndSignedZerosTakeTheirTotalOrderPlace) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto bitsOf = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  // +NaN sorts above everything: {1, 2, NaN} -> 2.
  EXPECT_EQ(kernelMedian({nan, 1.0, 2.0}), 2.0);
  // -NaN sorts below everything: {-NaN, 1, 2} -> 1.
  EXPECT_EQ(kernelMedian({2.0, -nan, 1.0}), 1.0);
  // A NaN majority wins the median, payload intact.
  EXPECT_EQ(bitsOf(kernelMedian({nan, 1.0, nan})), bitsOf(nan));
  // -0.0 < +0.0: the lower median of {+0, -0} is -0.0 in either order.
  EXPECT_EQ(bitsOf(kernelMedian({0.0, -0.0})), bitsOf(-0.0));
  EXPECT_EQ(bitsOf(kernelMedian({-0.0, 0.0})), bitsOf(-0.0));
  EXPECT_EQ(bitsOf(kernelMedian({0.0, -0.0, 0.0})), bitsOf(0.0));
  EXPECT_THROW(kernelMedian({}), std::logic_error);
}

}  // namespace
}  // namespace sidr::sh
