// Frozen per-record structural mappers: the test oracle for the dense
// accumulation path (DESIGN.md section 19).
//
// These are the StructuralMapper and JoinSideMapper as they were before
// dense per-split accumulation: one ExtractionMap::keyFor per record and
// one std::map<Coord, CellState> lookup per extraction-cell run, emitted
// at finish() in map order. They implement only Mapper::map, so the
// pipeline feeds them record by record through the default mapRun. Do
// not optimize them: their value is that they stay what they were.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "scihadoop/extraction.hpp"

namespace sidr::testsupport {

class FrozenStructuralMapper final : public mr::Mapper {
 public:
  FrozenStructuralMapper(const sh::StructuralQuery& query,
                         std::shared_ptr<const sh::ExtractionMap> extraction);

  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override;
  void finish(mr::MapContext& ctx) override;

 private:
  struct CellState {
    mr::Partial partial;
    std::vector<double> list;
    std::uint64_t consumed = 0;
  };

  sh::StructuralQuery query_;
  std::shared_ptr<const sh::ExtractionMap> extraction_;
  std::map<nd::Coord, CellState> cells_;
  const nd::Coord* lastKp_ = nullptr;
  CellState* lastCell_ = nullptr;
};

class FrozenJoinSideMapper final : public mr::Mapper {
 public:
  FrozenJoinSideMapper(std::shared_ptr<const sh::ExtractionMap> extraction,
                       double keepAbove, std::uint8_t side);

  void map(const nd::Coord& key, double value, mr::MapContext& ctx) override;
  void finish(mr::MapContext& ctx) override;

 private:
  struct CellState {
    std::vector<double> values;
    std::uint64_t consumed = 0;
  };

  std::shared_ptr<const sh::ExtractionMap> extraction_;
  double keepAbove_;
  double sideTag_;
  std::map<nd::Coord, CellState> cells_;
  const nd::Coord* lastKp_ = nullptr;
  CellState* lastCell_ = nullptr;
};

}  // namespace sidr::testsupport
