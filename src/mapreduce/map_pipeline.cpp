#include "mapreduce/map_pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace sidr::mr {

namespace {

/// The typed error for a reader that broke the nextBatch contract.
[[noreturn]] void throwStrayReader(std::uint32_t mapTask,
                                   const nd::Region& region,
                                   const std::string& what) {
  throw std::logic_error("runMapPipeline: map task " +
                         std::to_string(mapTask) + ", region " +
                         region.toString() + ": reader " + what);
}

}  // namespace

BufferingMapContext::BufferingMapContext(const Partitioner& partitioner,
                                         std::uint32_t numReducers,
                                         nd::Coord keySpace,
                                         SegmentPagePool* pool)
    : partitioner_(partitioner),
      keySpace_(std::move(keySpace)),
      packed_(numReducers),
      lists_(numReducers),
      emitSorted_(numReducers, true),
      lastLin_(numReducers, 0),
      pool_(pool) {
  if (keySpace_.rank() == 0 || !keySpace_.isValidShape()) {
    throw std::invalid_argument(
        "BufferingMapContext: requires a valid non-empty keySpace");
  }
}

BufferingMapContext::~BufferingMapContext() {
  if (pool_ != nullptr && charged_ != 0) pool_->release(charged_);
}

void BufferingMapContext::emit(const nd::Coord& key, Value value,
                               std::uint64_t represents) {
  if (pool_ != nullptr) {
    // Approximate footprint of this emission in its buffered form;
    // charged in whole pages once enough accumulates, so the pool's
    // atomic is touched once per ~kPageBytes, not once per record.
    pending_ += sizeof(PackedRecord);
    if (value.kind() == ValueKind::kList) {
      pending_ += sizeof(Value) + value.asList().size() * sizeof(double);
    }
    if (pending_ >= SegmentPagePool::kPageBytes) {
      charged_ += pool_->charge(pending_);
      pending_ = 0;
    }
  }
  const std::optional<std::uint64_t> linOrNone =
      nd::linearizeWithin(key, keySpace_);
  if (!linOrNone) {
    throw std::logic_error(
        "BufferingMapContext: emitted key outside declared keySpace");
  }
  const std::uint64_t lin = *linOrNone;
  const auto numReducers = static_cast<std::uint32_t>(packed_.size());
  std::uint32_t kb;
  if (lin >= runBegin_ && lin < runEnd_) {
    // Inside the cached same-keyblock run: no virtual dispatch at all.
    kb = runKb_;
  } else {
    kb = partitioner_.partitionRun(key, lin, numReducers, runEnd_);
    if (kb >= packed_.size()) {
      throw std::logic_error("Partitioner returned out-of-range keyblock");
    }
    if (runEnd_ <= lin) {
      throw std::logic_error("Partitioner returned an empty partition run");
    }
    runBegin_ = lin;
    runKb_ = kb;
  }
  std::vector<PackedRecord>& buf = packed_[kb];
  if (buf.empty()) {
    if (reserveHint_ > 0) buf.reserve(reserveHint_);
  } else if (lin < lastLin_[kb]) {
    emitSorted_[kb] = false;
  }
  lastLin_[kb] = lin;
  buf.push_back(packRecord(lin, std::move(value), represents, lists_[kb]));
}

Segment BufferingMapContext::takeSegment(std::uint32_t mapTask,
                                         std::uint32_t kb,
                                         const Combiner* combiner) {
  // The reserve hint assumes one emit per input record; aggregating
  // mappers emit one per cell. Unused capacity would otherwise travel
  // with the segment into the shuffle and the segment cache.
  if (packed_[kb].capacity() > 2 * packed_[kb].size()) {
    packed_[kb].shrink_to_fit();
  }
  Segment seg(mapTask, kb, std::move(packed_[kb]), std::move(lists_[kb]),
              keySpace_);
  // A keyblock whose emissions were tracked as already nondecreasing
  // needs no sort at all — skipping the call also skips the O(n)
  // sorted rescan, and guarantees sorted combiner output is never
  // re-examined after the combine merge.
  if (!emitSorted_[kb]) seg.sortByKey();
  if (combiner != nullptr) seg.combineWith(*combiner);
  return seg;
}

std::vector<Segment> runMapPipeline(const InputSplit& split,
                                    std::uint32_t mapTask,
                                    const RecordReaderFactory& readerFactory,
                                    Mapper& mapper,
                                    const Partitioner& partitioner,
                                    std::uint32_t numReducers,
                                    const Combiner* combiner,
                                    const nd::Coord& keySpace,
                                    SegmentPagePool* pagePool) {
  BufferingMapContext ctx(partitioner, numReducers, keySpace, pagePool);
  if (numReducers > 0) {
    ctx.reserveHint(static_cast<std::size_t>(split.volume()) / numReducers);
  }
  // One batch's worth of key/value staging, reused across regions. 512
  // records keeps the working set (~37 KiB) inside L1/L2 while
  // amortizing the virtual nextBatch call over whole row runs.
  constexpr std::size_t kBatch = 512;
  std::vector<nd::Coord> keys(kBatch);
  std::vector<double> values(kBatch);
  // A split may carry several regions (byte-range splits decompose into
  // up to 2*rank+1 boxes); the mapper sees them as one record stream.
  mapper.beginSplit(split.regions);
  for (const nd::Region& region : split.regions) {
    auto reader = readerFactory(region);
    // The pipeline owns the region, so it knows every row run: the
    // cursor cuts each batch into runs, and the reader's keys[0] is only
    // checked against it (RecordReader::nextBatch).
    nd::RegionCursor cursor(region);
    while (true) {
      std::size_t n;
      {
        obs::SpanScope readSpan(obs::Phase::kRead, obs::TaskSide::kMap,
                                mapTask);
        n = reader->nextBatch({keys.data(), kBatch}, {values.data(), kBatch});
        readSpan.setRecords(n);
      }
      if (n == 0) {
        if (cursor.valid()) {
          throwStrayReader(mapTask, region, "ended before the region did");
        }
        break;
      }
      if (!cursor.valid() || keys[0] != cursor.coord()) {
        throwStrayReader(mapTask, region,
                         "batch starts at " + keys[0].toString() +
                             ", expected " +
                             (cursor.valid() ? cursor.coord().toString()
                                             : std::string("the end")));
      }
      obs::SpanScope mapSpan(obs::Phase::kMap, obs::TaskSide::kMap, mapTask);
      for (std::size_t i = 0; i < n;) {
        if (!cursor.valid()) {
          throwStrayReader(mapTask, region, "returned values past the region");
        }
        // A rank-0 region is one scalar record: a run of one.
        const std::size_t len =
            region.rank() == 0
                ? 1
                : std::min(n - i,
                           static_cast<std::size_t>(cursor.rowRemaining()));
        mapper.mapRun(cursor.coord(), {values.data() + i, len}, ctx);
        if (region.rank() == 0) {
          cursor.next();
        } else {
          cursor.advanceInRow(static_cast<nd::Index>(len));
        }
        i += len;
      }
      mapSpan.setRecords(n);
    }
  }
  mapper.finish(ctx);
  std::vector<Segment> segs;
  segs.reserve(numReducers);
  for (std::uint32_t kb = 0; kb < numReducers; ++kb) {
    segs.push_back(ctx.takeSegment(mapTask, kb, combiner));
  }
  return segs;
}

}  // namespace sidr::mr
