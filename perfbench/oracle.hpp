// Independent output oracle: the expected answer of a structural query,
// computed straight from the generated source values with plain index
// arithmetic — no ExtractionMap, no operator code, no engine. Every
// benchmark query (cache-served fleet queries included) is compared
// against it.
#pragma once

#include <string>
#include <vector>

#include "mapreduce/kv.hpp"
#include "scihadoop/query.hpp"

namespace sidr::perfbench {

/// Relative tolerance for kMean: the engine sums partials in split order,
/// the oracle in cell order, so the last bits may differ. Median, max and
/// filter compare exactly.
inline constexpr double kMeanRelTolerance = 1e-10;

/// Expected output of one query, one entry per extraction instance in
/// row-major instance-grid order (the order collectAll returns).
struct Reference {
  sh::OperatorKind op = sh::OperatorKind::kMean;
  nd::Coord grid;                          ///< instance grid shape
  std::vector<double> scalars;             ///< kMean / kMax / kMedian
  std::vector<std::vector<double>> lists;  ///< kFilter (ascending)
};

/// Computes the reference for `query` over `values`, the row-major
/// contents of an array of `shape`. Supports the operators the
/// benchmark runs (mean, max, median, filter) with truncated edges,
/// renumbered keys, no subset and no stride.
Reference computeReference(const std::vector<double>& values,
                           const nd::Coord& shape,
                           const sh::StructuralQuery& query);

/// Compares an engine result (JobResult::collectAll) with the reference.
/// Returns an empty string on a match, else a description of the first
/// difference.
std::string compareWithReference(const std::vector<mr::KeyValue>& got,
                                 const Reference& ref);

}  // namespace sidr::perfbench
