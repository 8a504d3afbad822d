#include "support/frozen_lex_pipeline.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

namespace sidr::testsupport {

namespace {

class LexBufferingContext final : public mr::MapContext {
 public:
  LexBufferingContext(const mr::Partitioner& partitioner,
                      std::uint32_t numReducers)
      : partitioner_(partitioner), buffers_(numReducers) {}

  void emit(const nd::Coord& key, mr::Value value,
            std::uint64_t represents) override {
    const auto numReducers = static_cast<std::uint32_t>(buffers_.size());
    const std::uint32_t kb = partitioner_.partition(key, numReducers);
    if (kb >= numReducers) {
      throw std::logic_error("Partitioner returned out-of-range keyblock");
    }
    buffers_[kb].push_back(mr::KeyValue{key, std::move(value), represents});
  }

  std::vector<mr::KeyValue>& buffer(std::uint32_t kb) { return buffers_[kb]; }

 private:
  const mr::Partitioner& partitioner_;
  std::vector<std::vector<mr::KeyValue>> buffers_;
};

/// Sorts one keyblock's buffer by key (stable: equal keys keep emission
/// order) and folds runs of equal keys through the combiner.
std::vector<mr::KeyValue> sortAndCombine(std::vector<mr::KeyValue> records,
                                         const mr::Combiner* combiner) {
  std::stable_sort(records.begin(), records.end(),
                   [](const mr::KeyValue& a, const mr::KeyValue& b) {
                     return a.key < b.key;
                   });
  if (combiner == nullptr || records.empty()) return records;
  std::vector<mr::KeyValue> combined;
  combined.push_back(std::move(records.front()));
  for (std::size_t i = 1; i < records.size(); ++i) {
    mr::KeyValue& last = combined.back();
    if (records[i].key == last.key) {
      last.value = combiner->combine(last.value, records[i].value);
      last.represents += records[i].represents;
    } else {
      combined.push_back(std::move(records[i]));
    }
  }
  return combined;
}

class CollectingReduceContext final : public mr::ReduceContext {
 public:
  void emit(const nd::Coord& key, mr::Value value) override {
    records.push_back(mr::KeyValue{key, std::move(value), 1});
  }

  std::vector<mr::KeyValue> records;
};

}  // namespace

std::vector<mr::Segment> frozenLexMapPipeline(
    const mr::InputSplit& split, std::uint32_t mapTask,
    const mr::RecordReaderFactory& readerFactory, mr::Mapper& mapper,
    const mr::Partitioner& partitioner, std::uint32_t numReducers,
    const mr::Combiner* combiner, const nd::Coord& keySpace) {
  LexBufferingContext ctx(partitioner, numReducers);
  mapper.beginSplit(split.regions);
  for (const nd::Region& region : split.regions) {
    auto reader = readerFactory(region);
    nd::Coord key;
    double value = 0.0;
    while (reader->next(key, value)) mapper.map(key, value, ctx);
  }
  mapper.finish(ctx);
  std::vector<mr::Segment> segs;
  segs.reserve(numReducers);
  for (std::uint32_t kb = 0; kb < numReducers; ++kb) {
    segs.emplace_back(mapTask, kb,
                      sortAndCombine(std::move(ctx.buffer(kb)), combiner),
                      keySpace);
  }
  return segs;
}

std::vector<mr::KeyValue> frozenLexCollectAll(const mr::JobSpec& spec) {
  if (spec.secondaryMapperFactory) {
    throw std::invalid_argument("frozenLexCollectAll: single-input jobs only");
  }
  const auto numMaps = static_cast<std::uint32_t>(spec.splits.size());
  std::vector<std::vector<mr::Segment>> segments(numMaps);
  for (std::uint32_t m = 0; m < numMaps; ++m) {
    auto mapper = spec.mapperFactory();
    std::unique_ptr<mr::Combiner> combiner =
        spec.combinerFactory ? spec.combinerFactory() : nullptr;
    segments[m] = frozenLexMapPipeline(
        spec.splits[m], m, spec.readerFactory, *mapper, *spec.partitioner,
        spec.numReducers, combiner.get(), spec.keySpace);
  }
  std::vector<mr::KeyValue> all;
  for (std::uint32_t kb = 0; kb < spec.numReducers; ++kb) {
    std::vector<std::uint32_t> fetchSet;
    if (spec.mode == mr::ExecutionMode::kSidr) {
      fetchSet = spec.reduceDeps[kb];
    } else {
      for (std::uint32_t m = 0; m < numMaps; ++m) fetchSet.push_back(m);
    }
    std::vector<const mr::Segment*> inputs;
    for (std::uint32_t m : fetchSet) {
      if (!segments[m][kb].empty()) inputs.push_back(&segments[m][kb]);
    }
    mr::SegmentMerger merger{std::span<const mr::Segment* const>(inputs)};
    auto reducer = spec.reducerFactory();
    CollectingReduceContext out;
    merger.forEachGroup([&](const nd::Coord& key,
                            std::span<const mr::Value* const> values,
                            std::uint64_t /*represents*/) {
      reducer->reduce(key, values, out);
    });
    for (mr::KeyValue& kv : out.records) all.push_back(std::move(kv));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const mr::KeyValue& a, const mr::KeyValue& b) {
                     return a.key < b.key;
                   });
  return all;
}

}  // namespace sidr::testsupport
