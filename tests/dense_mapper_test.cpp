// Differential suite for dense per-split accumulation (DESIGN.md
// section 19): StructuralMapper and JoinSideMapper, fed row runs through
// the real map pipeline, must produce the same segment bytes and
// `represents` counts as the frozen per-record std::map mappers in
// tests/support. The sweep covers every map-side operator, strides with
// gaps, subsets, pad and truncate edges, both key modes, slab and
// multi-region byte-range splits, splits that touch no instance, and
// direct map() calls on a mapper that was never told its split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "mapreduce/map_pipeline.hpp"
#include "mapreduce/partitioners.hpp"
#include "scihadoop/operators.hpp"
#include "scihadoop/split_gen.hpp"
#include "support/frozen_mappers.hpp"

namespace sidr::sh {
namespace {

constexpr std::uint32_t kReducers = 3;

/// Distinct, unordered values in [0, 100): list contents and their
/// order are observable, and about half survive a threshold of 50.
double fieldValue(const nd::Coord& c) {
  return static_cast<double>(c.hash() % 1000) / 10.0;
}

nd::Index pick(std::mt19937_64& rng, nd::Index lo, nd::Index hi) {
  return std::uniform_int_distribution<nd::Index>(lo, hi)(rng);
}

const OperatorKind kMapOps[] = {
    OperatorKind::kMean,  OperatorKind::kSum,    OperatorKind::kMin,
    OperatorKind::kMax,   OperatorKind::kCount,  OperatorKind::kRange,
    OperatorKind::kMedian, OperatorKind::kSort,  OperatorKind::kFilter,
};

struct Geometry {
  StructuralQuery query;
  nd::Coord inputShape;
};

/// A random query geometry: rank 1-4, optional subset, optional stride
/// with gaps, random edge and key modes.
Geometry randomGeometry(std::mt19937_64& rng, OperatorKind op) {
  Geometry g;
  const auto rank = static_cast<std::size_t>(pick(rng, 1, 4));
  g.inputShape = nd::Coord::zeros(rank);
  nd::Coord corner = nd::Coord::zeros(rank);
  nd::Coord extent = nd::Coord::zeros(rank);
  g.query.extractionShape = nd::Coord::zeros(rank);
  nd::Coord stride = nd::Coord::zeros(rank);
  const bool subset = pick(rng, 0, 2) == 0;
  const bool strided = pick(rng, 0, 1) == 0;
  for (std::size_t d = 0; d < rank; ++d) {
    g.inputShape[d] = pick(rng, 3, rank >= 3 ? 7 : 12);
    if (subset) {
      corner[d] = pick(rng, 0, g.inputShape[d] / 3);
      extent[d] = pick(rng, 1, g.inputShape[d] - corner[d]);
    } else {
      extent[d] = g.inputShape[d];
    }
    g.query.extractionShape[d] =
        pick(rng, 1, std::min<nd::Index>(extent[d], 4));
    stride[d] = g.query.extractionShape[d] + (strided ? pick(rng, 0, 2) : 0);
  }
  g.query.op = op;
  if (subset) g.query.subset = nd::Region(corner, extent);
  if (strided) g.query.stride = stride;
  g.query.edgeMode = pick(rng, 0, 1) ? EdgeMode::kPad : EdgeMode::kTruncate;
  g.query.keyMode =
      pick(rng, 0, 1) ? KeyMode::kRenumber : KeyMode::kPreserveCoords;
  g.query.filterThreshold = 50.0;
  return g;
}

/// Splits over the query domain, as the planner places them: slabs, or
/// Hadoop byte ranges whose splits decompose into several regions.
std::vector<mr::InputSplit> domainSplits(std::mt19937_64& rng,
                                         const ExtractionMap& ex,
                                         bool byteRange) {
  const nd::Region& domain = ex.domain();
  std::vector<mr::InputSplit> splits;
  if (byteRange) {
    splits = generateByteRangeSplits(
        domain.shape(), static_cast<std::size_t>(pick(rng, 2, 7)));
  } else {
    SplitOptions opts;
    opts.targetElements = std::max<nd::Index>(1, domain.volume() / 3);
    splits = generateSplits(domain.shape(), opts);
  }
  for (mr::InputSplit& s : splits) {
    for (nd::Region& r : s.regions) {
      r = nd::Region(r.corner().plus(domain.corner()), r.shape());
    }
  }
  return splits;
}

/// A one-record split on the first domain coordinate that lies in no
/// extraction cell (a stride gap or the truncated tail), if any.
std::optional<mr::InputSplit> instancelessSplit(const ExtractionMap& ex) {
  for (nd::RegionCursor c(ex.domain()); c.valid(); c.next()) {
    if (!ex.instanceOf(c.coord())) {
      return mr::InputSplit::single(
          99, nd::Region(c.coord(), nd::Coord::ones(c.coord().rank())));
    }
  }
  return std::nullopt;
}

void expectSameSegments(const std::vector<mr::Segment>& dense,
                        const std::vector<mr::Segment>& frozen) {
  ASSERT_EQ(dense.size(), frozen.size());
  for (std::size_t kb = 0; kb < dense.size(); ++kb) {
    SCOPED_TRACE("keyblock " + std::to_string(kb));
    EXPECT_EQ(dense[kb].header(), frozen[kb].header());
    EXPECT_EQ(dense[kb].serialize(), frozen[kb].serialize());
    const auto& xs = dense[kb].records();
    const auto& ys = frozen[kb].records();
    ASSERT_EQ(xs.size(), ys.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(xs[i].represents, ys[i].represents) << "record " << i;
    }
  }
}

/// Runs `split` through the production pipeline with both mappers.
void expectPipelineParity(const mr::InputSplit& split, mr::Mapper& dense,
                          mr::Mapper& frozen, const ExtractionMap& ex) {
  const nd::Coord keySpace = ex.intermediateSpaceShape();
  mr::ModuloPartitioner part(keySpace);
  auto factory = makeSyntheticReaderFactory(fieldValue);
  auto a = mr::runMapPipeline(split, split.id, factory, dense, part, kReducers,
                              nullptr, keySpace);
  auto b = mr::runMapPipeline(split, split.id, factory, frozen, part,
                              kReducers, nullptr, keySpace);
  expectSameSegments(a, b);
}

/// Records a mapper's finish() emissions in order.
class CollectingContext final : public mr::MapContext {
 public:
  void emit(const nd::Coord& key, mr::Value value,
            std::uint64_t represents) override {
    out.push_back(mr::KeyValue{key, std::move(value), represents});
  }
  std::vector<mr::KeyValue> out;
};

/// Feeds every input coordinate, in a shuffled order, to both mappers
/// through map() alone — no split declared — and compares emissions.
void expectDirectMapParity(std::mt19937_64& rng, const nd::Coord& inputShape,
                           mr::Mapper& dense, mr::Mapper& frozen) {
  std::vector<nd::Coord> coords;
  for (nd::RegionCursor c(nd::Region::wholeSpace(inputShape)); c.valid();
       c.next()) {
    coords.push_back(c.coord());
  }
  std::shuffle(coords.begin(), coords.end(), rng);
  CollectingContext a;
  CollectingContext b;
  for (const nd::Coord& c : coords) {
    dense.map(c, fieldValue(c), a);
    frozen.map(c, fieldValue(c), b);
  }
  dense.finish(a);
  frozen.finish(b);
  ASSERT_EQ(a.out.size(), b.out.size());
  for (std::size_t i = 0; i < a.out.size(); ++i) {
    EXPECT_EQ(a.out[i].key, b.out[i].key) << "at " << i;
    EXPECT_EQ(a.out[i].value, b.out[i].value) << "at " << i;
    EXPECT_EQ(a.out[i].represents, b.out[i].represents) << "at " << i;
  }
}

TEST(DenseMapperDifferential, StructuralMatchesFrozenAcrossGeometries) {
  std::mt19937_64 rng(20261017);
  for (int trial = 0; trial < 180; ++trial) {
    const OperatorKind op = kMapOps[static_cast<std::size_t>(trial) %
                                    std::size(kMapOps)];
    const Geometry g = randomGeometry(rng, op);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 describe(g.query) + " over " + g.inputShape.toString());
    auto ex = std::make_shared<const ExtractionMap>(g.query, g.inputShape);
    auto splits = domainSplits(rng, *ex, trial % 2 == 1);
    if (auto none = instancelessSplit(*ex)) splits.push_back(*none);
    for (const mr::InputSplit& split : splits) {
      StructuralMapper dense(g.query, ex);
      testsupport::FrozenStructuralMapper frozen(g.query, ex);
      expectPipelineParity(split, dense, frozen, *ex);
    }
  }
}

TEST(DenseMapperDifferential, JoinSideMatchesFrozenAcrossGeometries) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const Geometry g = randomGeometry(rng, OperatorKind::kJoin);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 describe(g.query) + " over " + g.inputShape.toString());
    auto ex = std::make_shared<const ExtractionMap>(g.query, g.inputShape);
    const auto side = static_cast<std::uint8_t>(trial % 2);
    const double keepAbove = static_cast<double>(pick(rng, 0, 100));
    auto splits = domainSplits(rng, *ex, trial % 4 >= 2);
    if (auto none = instancelessSplit(*ex)) splits.push_back(*none);
    for (const mr::InputSplit& split : splits) {
      JoinSideMapper dense(ex, keepAbove, side);
      testsupport::FrozenJoinSideMapper frozen(ex, keepAbove, side);
      expectPipelineParity(split, dense, frozen, *ex);
    }
  }
}

TEST(DenseMapperDifferential, DirectMapCallsWithoutSplitMatchFrozen) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 45; ++trial) {
    const OperatorKind op = kMapOps[static_cast<std::size_t>(trial) %
                                    std::size(kMapOps)];
    const Geometry g = randomGeometry(rng, op);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 describe(g.query) + " over " + g.inputShape.toString());
    auto ex = std::make_shared<const ExtractionMap>(g.query, g.inputShape);
    StructuralMapper dense(g.query, ex);
    testsupport::FrozenStructuralMapper frozen(g.query, ex);
    expectDirectMapParity(rng, g.inputShape, dense, frozen);
    JoinSideMapper denseJoin(ex, 50.0, 1);
    testsupport::FrozenJoinSideMapper frozenJoin(ex, 50.0, 1);
    expectDirectMapParity(rng, g.inputShape, denseJoin, frozenJoin);
  }
}

TEST(DenseMapperDifferential, SplitsInGapsAndTruncatedTailsEmitNothing) {
  // Stride gaps: eshape 2 every 5 leaves [2, 5) and [7, 10) uncovered.
  StructuralQuery gaps;
  gaps.op = OperatorKind::kMedian;
  gaps.extractionShape = nd::Coord{2};
  gaps.stride = nd::Coord{5};
  // Truncate edge: 11 = 2*4 + 3, so [8, 11) lies past the last cell.
  StructuralQuery tail;
  tail.op = OperatorKind::kSum;
  tail.extractionShape = nd::Coord{4};
  const struct {
    StructuralQuery query;
    nd::Coord shape;
    mr::InputSplit split;
  } cases[] = {
      {gaps, nd::Coord{12}, mr::InputSplit::single(0, nd::Region({2}, {3}))},
      {tail, nd::Coord{11}, mr::InputSplit::single(1, nd::Region({8}, {3}))},
  };
  for (const auto& c : cases) {
    auto ex = std::make_shared<const ExtractionMap>(c.query, c.shape);
    ASSERT_FALSE(ex->instanceRangeOf(c.split.regions[0]));
    StructuralMapper dense(c.query, ex);
    testsupport::FrozenStructuralMapper frozen(c.query, ex);
    expectPipelineParity(c.split, dense, frozen, *ex);
    JoinSideMapper denseJoin(ex, 0.0, 0);
    testsupport::FrozenJoinSideMapper frozenJoin(ex, 0.0, 0);
    expectPipelineParity(c.split, denseJoin, frozenJoin, *ex);
  }
}

TEST(DenseMapperDifferential, RecordOutsideDeclaredSplitIsRejected) {
  StructuralQuery q;
  q.op = OperatorKind::kMean;
  q.extractionShape = nd::Coord{2, 2};
  auto ex = std::make_shared<const ExtractionMap>(q, nd::Coord{8, 8});
  StructuralMapper mapper(q, ex);
  const nd::Region rows({0, 0}, {2, 8});
  mapper.beginSplit({&rows, 1});
  CollectingContext ctx;
  mapper.map(nd::Coord{1, 7}, 1.0, ctx);
  EXPECT_THROW(mapper.map(nd::Coord{4, 0}, 1.0, ctx), std::logic_error);
}

}  // namespace
}  // namespace sidr::sh
