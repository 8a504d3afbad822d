// RecordReaders over coordinate input splits.
//
// SciHadoop defines input splits in logical coordinates, so both the
// reader's input (a Region) and its output keys live in the same space
// K (paper section 2.4.1) — the property that makes I_i == K_T^i and
// unlocks SIDR's dependency reasoning.
#pragma once

#include <functional>
#include <memory>

#include "mapreduce/interfaces.hpp"
#include "scifile/dataset.hpp"

namespace sidr::sh {

/// Reads a coordinate region of an SNDF variable, emitting one
/// (coordinate, value) record per element in row-major order. Streams
/// straight from the dataset's storage: the reader keeps the region's
/// file-contiguous runs (Dataset::regionRuns), not a copy of its values,
/// and each batch is read into the caller's buffer with one
/// Storage::readAt per run it touches.
class DatasetRecordReader final : public mr::RecordReader {
 public:
  /// Throws std::out_of_range when `region` leaves the variable's
  /// bounds and std::invalid_argument for a rank-0 region.
  DatasetRecordReader(std::shared_ptr<sci::Dataset> dataset,
                      std::size_t varIdx, const nd::Region& region);

  /// One record at a time (the frozen per-record oracles use this); a
  /// storage read per call.
  bool next(nd::Coord& key, double& value) override;

  /// Batch read under the RecordReader::nextBatch contract: reads up to
  /// a batch of values from storage into `values` and writes only
  /// keys[0].
  std::size_t nextBatch(std::span<nd::Coord> keys,
                        std::span<double> values) override;

 private:
  /// Reads the next out.size() values of the region into `out`.
  void readInto(std::span<double> out);

  std::shared_ptr<sci::Dataset> dataset_;
  std::size_t varIdx_;
  std::vector<sci::Dataset::Run> runs_;
  std::size_t run_ = 0;            ///< current run
  std::uint64_t inRun_ = 0;        ///< elements of runs_[run_] consumed
  std::vector<std::byte> staging_;  ///< encoded bytes of non-float64 types
  nd::RegionCursor cursor_;
};

/// Value function of a logical coordinate; lets experiments run over
/// datasets far larger than memory without materializing them.
using ValueFn = std::function<double(const nd::Coord&)>;

/// Emits (coordinate, fn(coordinate)) for every element of the region.
class SyntheticRecordReader final : public mr::RecordReader {
 public:
  SyntheticRecordReader(ValueFn fn, const nd::Region& region)
      : fn_(std::move(fn)), cursor_(region) {}

  bool next(nd::Coord& key, double& value) override {
    if (!cursor_.valid()) return false;
    key = cursor_.coord();
    value = fn_(key);
    cursor_.next();
    return true;
  }

  /// Batch read under the RecordReader::nextBatch contract: one fn_
  /// call per value, walking whole rows with a local coordinate; writes
  /// only keys[0].
  std::size_t nextBatch(std::span<nd::Coord> keys,
                        std::span<double> values) override;

 private:
  ValueFn fn_;
  nd::RegionCursor cursor_;
};

/// Factory helpers matching mr::RecordReaderFactory.
mr::RecordReaderFactory makeDatasetReaderFactory(
    std::shared_ptr<sci::Dataset> dataset, std::size_t varIdx);
mr::RecordReaderFactory makeSyntheticReaderFactory(ValueFn fn);

}  // namespace sidr::sh
