#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace sidr::perfbench {

namespace {

using nd::Index;

/// Row-major strides of `shape`.
std::vector<Index> stridesOf(const nd::Coord& shape) {
  std::vector<Index> strides(shape.rank(), 1);
  for (std::size_t d = shape.rank(); d-- > 1;) {
    strides[d - 1] = strides[d] * shape[d];
  }
  return strides;
}

/// Advances `pos` through the box [0, extent) in row-major order; false
/// once every position was visited.
bool advance(std::vector<Index>& pos, const nd::Coord& extent) {
  for (std::size_t d = pos.size(); d-- > 0;) {
    if (++pos[d] < extent[d]) return true;
    pos[d] = 0;
  }
  return false;
}

bool sameKey(const nd::Coord& key, const std::vector<Index>& expected) {
  if (key.rank() != expected.size()) return false;
  for (std::size_t d = 0; d < expected.size(); ++d) {
    if (key[d] != expected[d]) return false;
  }
  return true;
}

}  // namespace

Reference computeReference(const std::vector<double>& values,
                           const nd::Coord& shape,
                           const sh::StructuralQuery& query) {
  const nd::Coord& eshape = query.extractionShape;
  if (query.subset || query.stride || eshape.rank() != shape.rank() ||
      query.keyMode != sh::KeyMode::kRenumber ||
      query.edgeMode != sh::EdgeMode::kTruncate) {
    throw std::invalid_argument("oracle: unsupported query form");
  }
  if (values.size() != static_cast<std::size_t>(shape.volume())) {
    throw std::invalid_argument("oracle: value count does not match shape");
  }
  const std::size_t rank = shape.rank();
  Reference ref;
  ref.op = query.op;
  ref.grid = shape.dividedBy(eshape);  // truncate: whole cells only
  const std::size_t instances = static_cast<std::size_t>(ref.grid.volume());
  const std::vector<Index> strides = stridesOf(shape);

  std::vector<double> cell;
  cell.reserve(static_cast<std::size_t>(eshape.volume()));
  std::vector<Index> g(rank, 0);
  for (std::size_t i = 0; i < instances; ++i, advance(g, ref.grid)) {
    cell.clear();
    std::vector<Index> off(rank, 0);
    do {
      Index linear = 0;
      for (std::size_t d = 0; d < rank; ++d) {
        linear += (g[d] * eshape[d] + off[d]) * strides[d];
      }
      cell.push_back(values[static_cast<std::size_t>(linear)]);
    } while (advance(off, eshape));

    switch (query.op) {
      case sh::OperatorKind::kMean: {
        double sum = 0.0;
        for (double v : cell) sum += v;
        ref.scalars.push_back(sum / static_cast<double>(cell.size()));
        break;
      }
      case sh::OperatorKind::kMax:
        ref.scalars.push_back(*std::max_element(cell.begin(), cell.end()));
        break;
      case sh::OperatorKind::kMedian:
        // Lower median: the element at (n-1)/2 of the sorted cell.
        std::sort(cell.begin(), cell.end());
        ref.scalars.push_back(cell[(cell.size() - 1) / 2]);
        break;
      case sh::OperatorKind::kFilter: {
        std::vector<double> kept;
        for (double v : cell) {
          if (v > query.filterThreshold) kept.push_back(v);
        }
        std::sort(kept.begin(), kept.end());
        ref.lists.push_back(std::move(kept));
        break;
      }
      default:
        throw std::invalid_argument("oracle: unsupported operator");
    }
  }
  return ref;
}

std::string compareWithReference(const std::vector<mr::KeyValue>& got,
                                 const Reference& ref) {
  const std::size_t instances = static_cast<std::size_t>(ref.grid.volume());
  if (got.size() != instances) {
    return "expected " + std::to_string(instances) + " records, got " +
           std::to_string(got.size());
  }
  std::vector<Index> g(ref.grid.rank(), 0);
  for (std::size_t i = 0; i < instances; ++i, advance(g, ref.grid)) {
    const mr::KeyValue& kv = got[i];
    if (!sameKey(kv.key, g)) {
      return "record " + std::to_string(i) + " has key " + kv.key.toString();
    }
    const std::string where = "instance " + kv.key.toString();
    if (ref.op == sh::OperatorKind::kFilter) {
      if (kv.value.kind() != mr::ValueKind::kList ||
          kv.value.asList() != ref.lists[i]) {
        return where + ": filtered list differs";
      }
      continue;
    }
    if (kv.value.kind() != mr::ValueKind::kScalar) {
      return where + ": expected a scalar";
    }
    const double v = kv.value.asScalar();
    const double want = ref.scalars[i];
    const bool ok =
        ref.op == sh::OperatorKind::kMean
            ? std::fabs(v - want) <= kMeanRelTolerance * std::fabs(want)
            : v == want;
    if (!ok) {
      return where + ": got " + std::to_string(v) + ", want " +
             std::to_string(want);
    }
  }
  return {};
}

}  // namespace sidr::perfbench
