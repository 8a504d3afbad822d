#include "scihadoop/record_reader.hpp"

#include <algorithm>
#include <cstddef>

namespace sidr::sh {

DatasetRecordReader::DatasetRecordReader(std::shared_ptr<sci::Dataset> dataset,
                                         std::size_t varIdx,
                                         const nd::Region& region)
    : dataset_(std::move(dataset)),
      varIdx_(varIdx),
      runs_(dataset_->regionRuns(varIdx, region)),
      cursor_(region) {}

void DatasetRecordReader::readInto(std::span<double> out) {
  while (!out.empty()) {
    const sci::Dataset::Run& run = runs_[run_];
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), run.elements - inRun_));
    dataset_->readRun(varIdx_, run, inRun_, out.first(take), staging_);
    out = out.subspan(take);
    inRun_ += take;
    if (inRun_ == run.elements) {
      ++run_;
      inRun_ = 0;
    }
  }
}

bool DatasetRecordReader::next(nd::Coord& key, double& value) {
  if (!cursor_.valid()) return false;
  key = cursor_.coord();
  readInto({&value, 1});
  cursor_.next();
  return true;
}

std::size_t DatasetRecordReader::nextBatch(std::span<nd::Coord> keys,
                                           std::span<double> values) {
  const std::size_t cap = std::min(keys.size(), values.size());
  if (cap == 0 || !cursor_.valid()) return 0;
  keys[0] = cursor_.coord();
  // The runs follow row-major order, so the batch is the region's next n
  // values; the cursor only keeps next() and keys[0] in step, a row at a
  // time.
  std::size_t n = 0;
  while (n < cap && cursor_.valid()) {
    const std::size_t run = std::min(
        cap - n, static_cast<std::size_t>(cursor_.rowRemaining()));
    cursor_.advanceInRow(static_cast<nd::Index>(run));
    n += run;
  }
  readInto(values.first(n));
  return n;
}

std::size_t SyntheticRecordReader::nextBatch(std::span<nd::Coord> keys,
                                             std::span<double> values) {
  const std::size_t cap = std::min(keys.size(), values.size());
  if (!cursor_.valid() || cursor_.coord().rank() == 0) {
    return RecordReader::nextBatch(keys, values);
  }
  if (cap == 0) return 0;
  keys[0] = cursor_.coord();
  std::size_t n = 0;
  while (n < cap && cursor_.valid()) {
    const std::size_t run = std::min(
        cap - n, static_cast<std::size_t>(cursor_.rowRemaining()));
    nd::Coord at = cursor_.coord();
    const std::size_t last = at.rank() - 1;
    for (std::size_t i = 0; i < run; ++i, ++at[last]) {
      values[n + i] = fn_(at);
    }
    n += run;
    cursor_.advanceInRow(static_cast<nd::Index>(run));
  }
  return n;
}

mr::RecordReaderFactory makeDatasetReaderFactory(
    std::shared_ptr<sci::Dataset> dataset, std::size_t varIdx) {
  return [dataset, varIdx](const nd::Region& region) {
    return std::make_unique<DatasetRecordReader>(dataset, varIdx, region);
  };
}

mr::RecordReaderFactory makeSyntheticReaderFactory(ValueFn fn) {
  return [fn](const nd::Region& region) {
    return std::make_unique<SyntheticRecordReader>(fn, region);
  };
}

}  // namespace sidr::sh
