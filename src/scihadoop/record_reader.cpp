#include "scihadoop/record_reader.hpp"

#include <algorithm>
#include <cstddef>

namespace sidr::sh {

DatasetRecordReader::DatasetRecordReader(std::shared_ptr<sci::Dataset> dataset,
                                         std::size_t varIdx,
                                         const nd::Region& region)
    : dataset_(std::move(dataset)),
      region_(region),
      values_(dataset_->readRegion(varIdx, region)),
      cursor_(region) {}

bool DatasetRecordReader::next(nd::Coord& key, double& value) {
  if (!cursor_.valid()) return false;
  key = cursor_.coord();
  value = values_[pos_++];
  cursor_.next();
  return true;
}

std::size_t DatasetRecordReader::nextBatch(std::span<nd::Coord> keys,
                                           std::span<double> values) {
  const std::size_t cap = std::min(keys.size(), values.size());
  if (region_.rank() == 0) {  // rank-0 region: single scalar record
    return RecordReader::nextBatch(keys, values);
  }
  if (cap == 0 || !cursor_.valid()) return 0;
  keys[0] = cursor_.coord();
  // The values are preloaded in row-major order: the batch is one copy,
  // and the cursor only keeps next() and keys[0] in step, a row at a time.
  std::size_t n = 0;
  while (n < cap && cursor_.valid()) {
    const std::size_t run = std::min(
        cap - n, static_cast<std::size_t>(cursor_.rowRemaining()));
    cursor_.advanceInRow(static_cast<nd::Index>(run));
    n += run;
  }
  std::copy_n(values_.begin() + static_cast<std::ptrdiff_t>(pos_), n,
              values.begin());
  pos_ += n;
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
