#include "support/frozen_mappers.hpp"

#include <stdexcept>

namespace sidr::testsupport {

using sh::OperatorKind;

FrozenStructuralMapper::FrozenStructuralMapper(
    const sh::StructuralQuery& query,
    std::shared_ptr<const sh::ExtractionMap> extraction)
    : query_(query), extraction_(std::move(extraction)) {}

void FrozenStructuralMapper::map(const nd::Coord& key, double value,
                                 mr::MapContext& /*ctx*/) {
  auto kp = extraction_->keyFor(key);
  if (!kp) return;  // stride gap or truncated edge: produces nothing
  CellState* cellPtr;
  if (lastKp_ != nullptr && *lastKp_ == *kp) {
    cellPtr = lastCell_;
  } else {
    auto it = cells_.try_emplace(*kp).first;
    lastKp_ = &it->first;
    lastCell_ = cellPtr = &it->second;
  }
  CellState& cell = *cellPtr;
  ++cell.consumed;
  switch (query_.op) {
    case OperatorKind::kMean:
    case OperatorKind::kSum:
    case OperatorKind::kMin:
    case OperatorKind::kMax:
    case OperatorKind::kCount:
    case OperatorKind::kRange:
      cell.partial.merge(mr::Partial::ofValue(value));
      break;
    case OperatorKind::kMedian:
    case OperatorKind::kSort:
      cell.list.push_back(value);
      break;
    case OperatorKind::kFilter:
      if (value > query_.filterThreshold) cell.list.push_back(value);
      break;
    case OperatorKind::kJoin:
      throw std::logic_error("FrozenStructuralMapper: kJoin");
  }
}

void FrozenStructuralMapper::finish(mr::MapContext& ctx) {
  for (auto& [kp, cell] : cells_) {
    mr::Value v = sh::isDistributive(query_.op)
                      ? mr::Value::partial(cell.partial)
                      : mr::Value::list(std::move(cell.list));
    ctx.emit(kp, std::move(v), cell.consumed);
  }
  cells_.clear();
  lastKp_ = nullptr;
  lastCell_ = nullptr;
}

FrozenJoinSideMapper::FrozenJoinSideMapper(
    std::shared_ptr<const sh::ExtractionMap> extraction, double keepAbove,
    std::uint8_t side)
    : extraction_(std::move(extraction)),
      keepAbove_(keepAbove),
      sideTag_(side == 0 ? 0.0 : 1.0) {
  if (side > 1) {
    throw std::invalid_argument("FrozenJoinSideMapper: side must be 0 or 1");
  }
}

void FrozenJoinSideMapper::map(const nd::Coord& key, double value,
                               mr::MapContext& /*ctx*/) {
  auto kp = extraction_->keyFor(key);
  if (!kp) return;  // stride gap or truncated edge: produces nothing
  CellState* cellPtr;
  if (lastKp_ != nullptr && *lastKp_ == *kp) {
    cellPtr = lastCell_;
  } else {
    auto it = cells_.try_emplace(*kp).first;
    lastKp_ = &it->first;
    lastCell_ = cellPtr = &it->second;
  }
  ++cellPtr->consumed;
  if (value > keepAbove_) cellPtr->values.push_back(value);
}

void FrozenJoinSideMapper::finish(mr::MapContext& ctx) {
  for (auto& [kp, cell] : cells_) {
    std::vector<double> tagged;
    tagged.reserve(cell.values.size() + 1);
    tagged.push_back(sideTag_);
    tagged.insert(tagged.end(), cell.values.begin(), cell.values.end());
    ctx.emit(kp, mr::Value::list(std::move(tagged)), cell.consumed);
  }
  cells_.clear();
  lastKp_ = nullptr;
  lastCell_ = nullptr;
}

}  // namespace sidr::testsupport
