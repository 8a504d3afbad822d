// Structural operators: the Mapper/Reducer pair that evaluates a
// StructuralQuery, plus a serial oracle for correctness testing.
//
// The mapper translates input keys to intermediate keys through the
// ExtractionMap and pre-aggregates per intermediate key (Hadoop's
// combiner, run map-side):
//   * distributive operators ship a constant-size Partial per key;
//   * median ships the full value list (holistic: no reduction legal);
//   * filter ships the surviving values (possibly an empty list — the
//     record still exists so count annotations stay exact).
// Every emitted record carries `represents` = the number of map-input
// pairs consumed into it, implementing the paper's count annotation
// (section 3.2.1, method 2).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "scihadoop/dense_cells.hpp"
#include "scihadoop/extraction.hpp"
#include "scihadoop/record_reader.hpp"

namespace sidr::sh {

/// Accumulates each extraction cell of its split in a DenseCells array
/// fed by row runs; finish() emits the touched cells in ascending key
/// order. Median and sort lists are reserved to their exact in-split
/// size on first touch; filter lists are not (most values may fail).
class StructuralMapper final : public mr::Mapper {
 public:
  StructuralMapper(const StructuralQuery& query,
                   std::shared_ptr<const ExtractionMap> extraction);

  void beginSplit(std::span<const nd::Region> regions) override;
  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override;
  void mapRun(const nd::Coord& start, std::span<const double> values,
              mr::MapContext& ctx) override;
  void finish(mr::MapContext& ctx) override;

 private:
  struct CellState {
    mr::Partial partial;
    std::vector<double> list;
  };

  StructuralQuery query_;
  DenseCells<CellState> cells_;
};

/// Merges a cell's fetched values and finalizes them. A median cell's
/// lists are gathered straight into order-preserving keys and selected
/// by selectKey; every other operator goes through finalizeCell.
class StructuralReducer final : public mr::Reducer {
 public:
  explicit StructuralReducer(const StructuralQuery& query) : query_(query) {}

  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override;

 private:
  StructuralQuery query_;
  /// Median key buffer, grown to the largest cell and reused: one
  /// reducer object serves one reduce attempt on one thread.
  std::vector<std::uint64_t> keys_;
};

/// Finalizes a merged partial / value list into the operator's output
/// value (shared by the reducer and the serial oracle). The median is
/// the lower median under IEEE-754 totalOrder (see lowerMedian).
mr::Value finalizeCell(const StructuralQuery& query, const mr::Partial& p,
                       std::vector<double>&& list);

// --- median kernel (DESIGN.md §20) ---

/// Order-preserving u64 image of a double's bit pattern: flip every bit
/// of a negative, set the sign bit of a non-negative. a precedes b in
/// IEEE-754 totalOrder exactly when orderedKey(a) < orderedKey(b): -0.0
/// comes before +0.0, negative NaNs below -inf, positive NaNs above
/// +inf.
constexpr std::uint64_t orderedKey(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Inverse of orderedKey: the double, bit for bit.
constexpr double fromOrderedKey(std::uint64_t key) noexcept {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return std::bit_cast<double>((key & kSign) != 0 ? key & ~kSign : ~key);
}

/// Returns the key of rank k (0-based, ascending) and leaves `keys` in
/// an unspecified order. Range-normalised MSB radix select: one min/max
/// pass, then per round a histogram of (key - min) >> shift over at
/// most 256 buckets, keeping only the bucket that holds rank k (and its
/// min/max for the next round). Each round narrows the range by 8 bits,
/// so there are at most 8. Throws std::out_of_range when k >= size.
std::uint64_t selectKey(std::span<std::uint64_t> keys, std::size_t k);

/// Lower median — the element of rank (n-1)/2 under IEEE-754
/// totalOrder — of the values whose orderedKey images are `keys`.
/// The result is one of the inputs, bit for bit. Reorders `keys`;
/// throws std::logic_error when it is empty.
double lowerMedian(std::span<std::uint64_t> keys);

/// Factories plugging into mr::JobSpec.
mr::MapperFactory makeStructuralMapperFactory(
    const StructuralQuery& query,
    std::shared_ptr<const ExtractionMap> extraction);
mr::ReducerFactory makeStructuralReducerFactory(const StructuralQuery& query);

/// Evaluates the query serially over the whole input (values supplied by
/// `fn`) — the ground-truth oracle for engine tests. Returns key-sorted
/// results. Rejects kJoin (use runJoinOracle).
std::vector<mr::KeyValue> runSerialOracle(const StructuralQuery& query,
                                          const ExtractionMap& extraction,
                                          const ValueFn& fn);

// --- two-array structural join (OperatorKind::kJoin, DESIGN.md §18) ---

/// Map-side operator for ONE side of the join: buffers each cell's
/// surviving values (strictly greater than the side's threshold),
/// then emits one list per cell with the side tag prepended —
/// list[0] is 0.0 (left) or 1.0 (right), the rest the surviving
/// values — so the reducer can pair the two sides of a shared key.
/// A cell whose values all fail the threshold still emits (an empty
/// tagged list): `represents` counts consumed inputs pre-filter, so
/// count-annotation gating stays exact.
class JoinSideMapper final : public mr::Mapper {
 public:
  JoinSideMapper(std::shared_ptr<const ExtractionMap> extraction,
                 double keepAbove, std::uint8_t side);

  void beginSplit(std::span<const nd::Region> regions) override;
  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override;
  void mapRun(const nd::Coord& start, std::span<const double> values,
              mr::MapContext& ctx) override;
  void finish(mr::MapContext& ctx) override;

 private:
  double keepAbove_;
  double sideTag_;
  /// Per cell: the side tag, then the surviving values in input order.
  DenseCells<std::vector<double>> cells_;
};

/// Reduce-side join: splits the fetched lists by side tag, sorts each
/// side ascending (making the output independent of merge order, hence
/// of shuffle regime, transport and partition refinement), and emits
/// the nested-loop products left[i]*right[j], j fastest.
class JoinReducer final : public mr::Reducer {
 public:
  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override;
};

/// The synthesized right-side query of a join: the JoinSpec's geometry
/// under the left query's edge mode, renumbered keys. Single source of
/// truth for planner, oracle and tests building the right ExtractionMap.
StructuralQuery joinRightQuery(const StructuralQuery& query);

mr::MapperFactory makeJoinMapperFactory(
    const StructuralQuery& query,
    std::shared_ptr<const ExtractionMap> extraction, std::uint8_t side);
mr::ReducerFactory makeJoinReducerFactory();

/// Serial nested-loop evaluation of a kJoin query over both inputs —
/// the join analogue of runSerialOracle. `left`/`right` must share an
/// instance grid; `represents` of each record is the total inputs
/// consumed from BOTH cells.
std::vector<mr::KeyValue> runJoinOracle(const StructuralQuery& query,
                                        const ExtractionMap& left,
                                        const ExtractionMap& right,
                                        const ValueFn& leftFn,
                                        const ValueFn& rightFn);

}  // namespace sidr::sh
