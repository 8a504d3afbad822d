#include "mapreduce/segment.hpp"

#include "mapreduce/interfaces.hpp"
#include "obs/trace.hpp"
#include "scifile/storage.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

namespace sidr::mr {

SortStats& sortStats() noexcept {
  thread_local SortStats stats;
  return stats;
}

namespace {
/// Innermost ScopedSortStatsSink on this thread; null = fall back to
/// the thread-local sortStats().
thread_local SortStats* tSortSink = nullptr;
}  // namespace

SortStats& activeSortStats() noexcept {
  return tSortSink != nullptr ? *tSortSink : sortStats();
}

ScopedSortStatsSink::ScopedSortStatsSink(SortStats* sink) noexcept
    : prev_(tSortSink) {
  tSortSink = sink;
}

ScopedSortStatsSink::~ScopedSortStatsSink() { tSortSink = prev_; }

void radixSortPacked(std::vector<PackedRecord>& records) {
  SortStats& stats = activeSortStats();
  const std::size_t n = records.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    // The pair buffer indexes with u32 (as the comparison path does);
    // beyond that a stable comparison sort preserves the contract.
    ++stats.comparisonSorts;
    std::stable_sort(records.begin(), records.end(),
                     [](const PackedRecord& a, const PackedRecord& b) {
                       return a.lin < b.lin;
                     });
    return;
  }
  ++stats.radixSorts;
  if (n <= 1) return;
  struct LinIdx {
    std::uint64_t lin;
    std::uint32_t idx;
  };
  std::vector<LinIdx> front(n), back(n);
  // One scan builds all eight byte histograms while filling the pair
  // buffer, so skippable passes are known before any scatter runs.
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = records[i].lin;
    front[i] = LinIdx{k, static_cast<std::uint32_t>(i)};
    for (std::size_t b = 0; b < 8; ++b) ++counts[b][(k >> (8 * b)) & 0xff];
  }
  LinIdx* src = front.data();
  LinIdx* dst = back.data();
  for (std::size_t pass = 0; pass < 8; ++pass) {
    std::array<std::uint32_t, 256>& c = counts[pass];
    const std::size_t shift = 8 * pass;
    // A byte that is constant across the segment contributes nothing to
    // the order: a stable counting scatter on it is the identity.
    if (c[(src[0].lin >> shift) & 0xff] == n) {
      ++stats.radixPassesSkipped;
      continue;
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& bucket : c) {
      const std::uint32_t count = bucket;
      bucket = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[c[(src[i].lin >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
    ++stats.radixPasses;
  }
  // LSD counting passes are stable, so equal keys still carry ascending
  // idx here — the same permutation the (lin, idx) comparison sort
  // yields. Apply it to the 40-byte records once.
  std::vector<PackedRecord> sorted;
  sorted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sorted.push_back(records[src[i].idx]);
  records = std::move(sorted);
}

std::string segmentFileName(std::uint32_t mapTask, std::uint32_t keyblock) {
  return "map" + std::to_string(mapTask) + "_kb" + std::to_string(keyblock) +
         ".seg";
}

std::string jobSpillDirName(std::uint64_t jobId) {
  return "job" + std::to_string(jobId);
}

std::string segmentFileName(std::uint64_t jobId, std::uint32_t mapTask,
                            std::uint32_t keyblock) {
  return jobSpillDirName(jobId) + "/" + segmentFileName(mapTask, keyblock);
}

std::string segmentAttemptFileName(std::uint32_t mapTask,
                                   std::uint32_t keyblock,
                                   std::uint32_t attempt) {
  return segmentFileName(mapTask, keyblock) + ".attempt" +
         std::to_string(attempt) + ".tmp";
}

void commitSegmentFile(const std::string& dir, std::uint32_t mapTask,
                       std::uint32_t keyblock, std::uint32_t attempt) {
  std::filesystem::rename(
      std::filesystem::path(dir) /
          segmentAttemptFileName(mapTask, keyblock, attempt),
      std::filesystem::path(dir) / segmentFileName(mapTask, keyblock));
}

void discardSegmentAttemptFile(const std::string& dir, std::uint32_t mapTask,
                               std::uint32_t keyblock,
                               std::uint32_t attempt) {
  std::error_code ec;  // swallowed: cleanup of a dead attempt is advisory
  std::filesystem::remove(
      std::filesystem::path(dir) /
          segmentAttemptFileName(mapTask, keyblock, attempt),
      ec);
}

Segment readSegmentFile(const std::string& path, const nd::Coord& keySpace,
                        std::uint64_t& bytesRead) {
  sci::FileStorage file(path, sci::FileStorage::Mode::kOpenReadOnly);
  std::vector<std::byte> bytes(file.size());
  file.readAt(0, bytes);
  bytesRead += bytes.size();
  return Segment::deserialize(bytes, keySpace);
}

Segment::Segment(std::uint32_t mapTask, std::uint32_t keyblock,
                 std::vector<KeyValue> records, nd::Coord keySpace)
    : Segment(mapTask, keyblock, {}, {}, std::move(keySpace)) {
  packed_.reserve(records.size());
  for (KeyValue& kv : records) {
    const std::optional<std::uint64_t> lin =
        nd::linearizeWithin(kv.key, keySpace_);
    if (!lin) throw std::out_of_range("Segment: key outside key space");
    packed_.push_back(
        packRecord(*lin, std::move(kv.value), kv.represents, lists_));
    header_.represents += kv.represents;
  }
  header_.numRecords = packed_.size();
}

Segment::Segment(std::uint32_t mapTask, std::uint32_t keyblock,
                 std::vector<PackedRecord> packed,
                 std::vector<Value> lists, nd::Coord keySpace)
    : packed_(std::move(packed)),
      lists_(std::move(lists)),
      packedMode_(true),
      keySpace_(std::move(keySpace)) {
  if (keySpace_.rank() == 0 || !keySpace_.isValidShape()) {
    throw std::invalid_argument(
        "Segment: requires a valid non-empty keySpace");
  }
  header_.mapTask = mapTask;
  header_.keyblock = keyblock;
  header_.numRecords = packed_.size();
  header_.represents = 0;
  for (const PackedRecord& r : packed_) header_.represents += r.represents;
}

Segment::Segment(const SegmentHeader& header, std::vector<KeyValue> records,
                 std::vector<std::uint64_t> linearKeys, nd::Coord keySpace)
    : header_(header),
      records_(std::move(records)),
      linearKeys_(std::move(linearKeys)),
      keySpace_(std::move(keySpace)) {}

void Segment::materializeNow() const {
  // Builds the KeyValue view in final order with exact capacity. Dense
  // sorted runs delinearize by bumping the innermost coordinate instead
  // of re-dividing (mappers over row-major input emit dense runs).
  std::vector<KeyValue> records;
  std::vector<std::uint64_t> linearKeys;
  records.reserve(packed_.size());
  linearKeys.reserve(packed_.size());
  const std::size_t lastD = keySpace_.rank() - 1;
  nd::Coord cur;
  std::uint64_t prevLin = 0;
  bool havePrev = false;
  for (const PackedRecord& r : packed_) {
    if (havePrev && r.lin == prevLin + 1 && cur[lastD] + 1 < keySpace_[lastD]) {
      ++cur[lastD];
    } else if (!havePrev || r.lin != prevLin) {
      cur = nd::delinearize(static_cast<nd::Index>(r.lin), keySpace_);
    }
    prevLin = r.lin;
    havePrev = true;
    KeyValue& kv = records.emplace_back();
    kv.key = cur;
    kv.represents = r.represents;
    switch (r.kind) {
      case ValueKind::kScalar:
        kv.value = Value::scalar(r.payload.scalar);
        break;
      case ValueKind::kPartial:
        kv.value = Value::partial(r.payload.partial);
        break;
      case ValueKind::kList:
        kv.value = std::move(lists_[r.payload.listIndex]);
        break;
    }
    linearKeys.push_back(r.lin);
  }
  records_ = std::move(records);
  linearKeys_ = std::move(linearKeys);
  packed_.clear();
  packed_.shrink_to_fit();
  lists_.clear();
  lists_.shrink_to_fit();
  packedMode_ = false;
}

void Segment::sortByKey() {
  obs::SpanScope span(obs::Phase::kSortPacked, obs::TaskSide::kMap,
                      header_.mapTask, 0, header_.keyblock);
  span.setRecords(header_.numRecords);
  if (packedMode_) {
    sortPacked();
    return;
  }
  if (!std::is_sorted(linearKeys_.begin(), linearKeys_.end())) {
    throw std::logic_error(
        "Segment::sortByKey: only the packed form sorts; this segment was "
        "materialized unsorted");
  }
  ++activeSortStats().sortedSkips;
}

void Segment::sortPacked() {
  // Mappers over row-major input usually emit each keyblock's records
  // already key-ordered; detect that in O(n) and skip the sort.
  const auto linLess = [](const PackedRecord& a, const PackedRecord& b) {
    return a.lin < b.lin;
  };
  if (std::is_sorted(packed_.begin(), packed_.end(), linLess)) {
    ++activeSortStats().sortedSkips;
    return;
  }
  if (packed_.size() >= kRadixSortMinRecords) {
    // List indices stay valid on every path: the side table is never
    // permuted.
    radixSortPacked(packed_);
    return;
  }
  // Small segment: the comparison sort on (lin, idx) pairs wins below
  // the radix threshold. Buffer order is emission order, so the index
  // tie-break keeps the sort stable — the order a stable sort by key
  // produces.
  ++activeSortStats().comparisonSorts;
  struct LinIdx {
    std::uint64_t lin;
    std::uint32_t idx;
  };
  std::vector<LinIdx> order(packed_.size());
  for (std::size_t i = 0; i < packed_.size(); ++i) {
    order[i] = {packed_[i].lin, static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(), [](const LinIdx& a, const LinIdx& b) {
    return a.lin < b.lin || (a.lin == b.lin && a.idx < b.idx);
  });
  std::vector<PackedRecord> sorted;
  sorted.reserve(packed_.size());
  for (const LinIdx& li : order) sorted.push_back(packed_[li.idx]);
  packed_ = std::move(sorted);
}

void Segment::combineWith(const Combiner& combiner) {
  if (packedMode_) materializeNow();  // combiners consume full Values
  if (records_.empty()) return;
  std::vector<KeyValue> combined;
  std::vector<std::uint64_t> combinedLin;
  combined.push_back(std::move(records_.front()));
  combinedLin.push_back(linearKeys_.front());
  for (std::size_t i = 1; i < records_.size(); ++i) {
    KeyValue& last = combined.back();
    // Equal-run detection on the u64: linearization is injective over
    // the key space, so u64 equality == Coord equality.
    if (linearKeys_[i] == combinedLin.back()) {
      last.value = combiner.combine(last.value, records_[i].value);
      last.represents += records_[i].represents;
    } else {
      combined.push_back(std::move(records_[i]));
      combinedLin.push_back(linearKeys_[i]);
    }
  }
  records_ = std::move(combined);
  linearKeys_ = std::move(combinedLin);
  header_.numRecords = records_.size();
  // header_.represents is preserved: combining merges values but still
  // stands for the same original input pairs.
}

bool Segment::isSorted() const {
  if (packedMode_) {
    return std::is_sorted(
        packed_.begin(), packed_.end(),
        [](const PackedRecord& a, const PackedRecord& b) {
          return a.lin < b.lin;
        });
  }
  return std::is_sorted(linearKeys_.begin(), linearKeys_.end());
}

namespace {

// Fixed little-endian u64 words; on little-endian hosts every word is a
// single memcpy (and runs of words — keys, list payloads — are a single
// bulk memcpy), big-endian hosts fall back to byte shifts.

inline void storeU64(std::byte* dst, std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &x, 8);
  } else {
    for (int b = 0; b < 8; ++b) {
      dst[b] = static_cast<std::byte>((x >> (b * 8)) & 0xff);
    }
  }
}

inline std::uint64_t loadU64(const std::byte* src) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t x;
    std::memcpy(&x, src, 8);
    return x;
  } else {
    std::uint64_t x = 0;
    for (int b = 0; b < 8; ++b) {
      x |= static_cast<std::uint64_t>(src[b]) << (b * 8);
    }
    return x;
  }
}

/// Appends words into a preallocated, exact-size buffer.
class Writer {
 public:
  explicit Writer(std::byte* p) : p_(p) {}

  void u64(std::uint64_t x) {
    storeU64(p_, x);
    p_ += 8;
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// Bulk-writes `n` contiguous 8-byte values (int64/double arrays).
  template <typename T>
  void words(const T* src, std::size_t n) {
    static_assert(sizeof(T) == 8);
    if constexpr (std::endian::native == std::endian::little) {
      // n == 0 may come with a null `src` (an empty vector's data()).
      if (n > 0) std::memcpy(p_, src, n * 8);
      p_ += n * 8;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits;
        std::memcpy(&bits, src + i, 8);
        u64(bits);
      }
    }
  }

 private:
  std::byte* p_;
};

/// Bounds-checked reading cursor: every read (and every length-derived
/// allocation) is validated against the remaining byte count first.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  void require(std::size_t n) const {
    if (remaining() < n) {
      throw std::out_of_range("Segment::deserialize: truncated");
    }
  }

  std::uint64_t u64() {
    require(8);
    return u64Unchecked();
  }

  /// Read after a covering require(): bounds already validated.
  std::uint64_t u64Unchecked() {
    std::uint64_t x = loadU64(p_);
    p_ += 8;
    return x;
  }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  double f64Unchecked() {
    std::uint64_t bits = u64Unchecked();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Bulk-reads `n` contiguous 8-byte values after a covering
  /// require().
  template <typename T>
  void wordsUnchecked(T* dst, std::size_t n) {
    static_assert(sizeof(T) == 8);
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(dst, p_, n * 8);
      p_ += n * 8;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = u64Unchecked();
        std::memcpy(dst + i, &bits, 8);
      }
    }
  }

 private:
  const std::byte* p_;
  const std::byte* end_;
};

/// Smallest possible encoded record: rank-0 key + represents + kind +
/// scalar payload. Used to validate numRecords before reserving.
constexpr std::size_t kMinRecordBytes = 8 + 8 + 8 + 8;

inline double loadF64(const std::byte* p) {
  const std::uint64_t bits = loadU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::size_t Segment::serializedSize() const {
  std::size_t size = kHeaderBytes;
  if (packedMode_) {
    // Packed records all share the key space's rank; only list payloads
    // vary in size.
    const std::size_t rank = keySpace_.rank();
    for (const PackedRecord& r : packed_) {
      size += 8 + 8 * rank + 16;
      switch (r.kind) {
        case ValueKind::kScalar:
          size += 8;
          break;
        case ValueKind::kPartial:
          size += 4 * 8;
          break;
        case ValueKind::kList:
          size += 8 + 8 * lists_[r.payload.listIndex].asList().size();
          break;
      }
    }
    return size;
  }
  for (const KeyValue& kv : records_) {
    size += 8 + 8 * kv.key.rank();  // rank word + coordinates
    size += 8 + 8;                  // represents + value kind
    switch (kv.value.kind()) {
      case ValueKind::kScalar:
        size += 8;
        break;
      case ValueKind::kPartial:
        size += 4 * 8;
        break;
      case ValueKind::kList:
        size += 8 + 8 * kv.value.asList().size();
        break;
    }
  }
  return size;
}

std::vector<std::byte> Segment::serialize() const {
  std::vector<std::byte> out;
  serializeInto(out);
  return out;
}

void Segment::serializeInto(std::vector<std::byte>& out) const {
  out.resize(serializedSize());
  Writer w(out.data());
  w.u64(header_.mapTask);
  w.u64(header_.keyblock);
  w.u64(header_.numRecords);
  w.u64(header_.represents);
  if (packedMode_) {
    // Encode straight from the packed form: delinearize each record
    // with the same dense-run bump materializeNow uses, producing the
    // exact bytes the materialized encode would — without ever building
    // the ~160-byte-per-record KeyValue view (which matters most at
    // eviction time, when memory is the thing being reclaimed).
    const std::size_t rank = keySpace_.rank();
    const std::size_t lastD = rank - 1;
    nd::Coord cur;
    std::uint64_t prevLin = 0;
    bool havePrev = false;
    for (const PackedRecord& r : packed_) {
      if (havePrev && r.lin == prevLin + 1 &&
          cur[lastD] + 1 < keySpace_[lastD]) {
        ++cur[lastD];
      } else if (!havePrev || r.lin != prevLin) {
        cur = nd::delinearize(static_cast<nd::Index>(r.lin), keySpace_);
      }
      prevLin = r.lin;
      havePrev = true;
      w.u64(rank);
      w.words(cur.begin(), rank);
      w.u64(r.represents);
      w.u64(static_cast<std::uint64_t>(r.kind));
      switch (r.kind) {
        case ValueKind::kScalar:
          w.f64(r.payload.scalar);
          break;
        case ValueKind::kPartial: {
          const Partial& p = r.payload.partial;
          w.f64(p.sum);
          w.f64(p.min);
          w.f64(p.max);
          w.u64(static_cast<std::uint64_t>(p.count));
          break;
        }
        case ValueKind::kList: {
          const auto& xs = lists_[r.payload.listIndex].asList();
          w.u64(xs.size());
          w.words(xs.data(), xs.size());
          break;
        }
      }
    }
    return;
  }
  for (const KeyValue& kv : records_) {
    w.u64(kv.key.rank());
    w.words(kv.key.begin(), kv.key.rank());
    w.u64(kv.represents);
    w.u64(static_cast<std::uint64_t>(kv.value.kind()));
    switch (kv.value.kind()) {
      case ValueKind::kScalar:
        w.f64(kv.value.asScalar());
        break;
      case ValueKind::kPartial: {
        const Partial& p = kv.value.asPartial();
        w.f64(p.sum);
        w.f64(p.min);
        w.f64(p.max);
        w.u64(static_cast<std::uint64_t>(p.count));
        break;
      }
      case ValueKind::kList: {
        const auto& xs = kv.value.asList();
        w.u64(xs.size());
        w.words(xs.data(), xs.size());
        break;
      }
    }
  }
}

std::uint64_t Segment::residentBytes() const noexcept {
  std::uint64_t bytes = 0;
  if (packedMode_) {
    bytes += packed_.size() * sizeof(PackedRecord);
    for (const Value& xs : lists_) {
      bytes += sizeof(Value) + xs.asList().size() * sizeof(double);
    }
    return bytes;
  }
  bytes += records_.size() * sizeof(KeyValue);
  for (const KeyValue& kv : records_) {
    if (kv.value.kind() == ValueKind::kList) {
      bytes += kv.value.asList().size() * sizeof(double);
    }
  }
  bytes += linearKeys_.size() * sizeof(std::uint64_t);
  return bytes;
}

Segment Segment::deserialize(std::span<const std::byte> bytes,
                             const nd::Coord& keySpace) {
  if (keySpace.rank() == 0 || !keySpace.isValidShape()) {
    throw std::invalid_argument(
        "Segment::deserialize: requires a valid non-empty keySpace");
  }
  Reader cur(bytes);
  cur.require(kHeaderBytes);
  SegmentHeader h;
  h.mapTask = static_cast<std::uint32_t>(cur.u64());
  h.keyblock = static_cast<std::uint32_t>(cur.u64());
  h.numRecords = cur.u64();
  h.represents = cur.u64();
  // A corrupt header must not drive a huge reserve: every record costs
  // at least kMinRecordBytes on the wire, so the claimed count is
  // bounded by the bytes actually present.
  if (h.numRecords > cur.remaining() / kMinRecordBytes) {
    throw std::out_of_range("Segment::deserialize: record count exceeds input");
  }
  // Records are constructed in place (no build-then-move), and bounds
  // checks are hoisted: one covering require() per record's fixed part
  // and one per payload, instead of one per word. reserve + emplace
  // avoids zero-initializing the whole array up front. Each key is
  // range-checked and linearized as it is decoded.
  std::vector<KeyValue> records;
  std::vector<std::uint64_t> lin;
  records.reserve(h.numRecords);
  lin.reserve(h.numRecords);
  std::uint64_t represents = 0;
  for (std::uint64_t i = 0; i < h.numRecords; ++i) {
    KeyValue& kv = records.emplace_back();
    std::uint64_t rank = cur.u64();
    if (rank > nd::kMaxRank) {
      throw std::runtime_error("Segment::deserialize: bad key rank");
    }
    cur.require(8 * rank + 16);  // coords + represents + value kind
    kv.key = nd::Coord::zeros(rank);
    cur.wordsUnchecked(kv.key.begin(), rank);
    const std::optional<std::uint64_t> keyLin =
        nd::linearizeWithin(kv.key, keySpace);
    if (!keyLin) {
      throw std::out_of_range("Segment::deserialize: key outside key space");
    }
    lin.push_back(*keyLin);
    kv.represents = cur.u64Unchecked();
    represents += kv.represents;
    auto kind = static_cast<ValueKind>(cur.u64Unchecked());
    switch (kind) {
      case ValueKind::kScalar:
        kv.value = Value::scalar(cur.f64());
        break;
      case ValueKind::kPartial: {
        cur.require(4 * 8);
        Partial p;
        p.sum = cur.f64Unchecked();
        p.min = cur.f64Unchecked();
        p.max = cur.f64Unchecked();
        p.count = static_cast<std::int64_t>(cur.u64Unchecked());
        kv.value = Value::partial(p);
        break;
      }
      case ValueKind::kList: {
        std::uint64_t n = cur.u64();
        if (n > cur.remaining() / 8) {
          throw std::out_of_range(
              "Segment::deserialize: list length exceeds input");
        }
        std::vector<double> xs(n);
        cur.wordsUnchecked(xs.data(), n);
        kv.value = Value::list(std::move(xs));
        break;
      }
      default:
        throw std::runtime_error("Segment::deserialize: bad value kind");
    }
  }
  if (cur.remaining() != 0) {
    throw std::runtime_error("Segment::deserialize: trailing bytes");
  }
  if (represents != h.represents) {
    throw std::runtime_error("Segment::deserialize: annotation mismatch");
  }
  return Segment(h, std::move(records), std::move(lin), keySpace);
}

SegmentHeader Segment::peekHeader(std::span<const std::byte> bytes) {
  Reader cur(bytes);
  cur.require(kHeaderBytes);
  SegmentHeader h;
  h.mapTask = static_cast<std::uint32_t>(cur.u64());
  h.keyblock = static_cast<std::uint32_t>(cur.u64());
  h.numRecords = cur.u64();
  h.represents = cur.u64();
  return h;
}

// ---- SegmentStream: bounded-window decode of spilled segments ----

SegmentStream::SegmentStream(const std::string& path, std::size_t windowBytes,
                             const nd::Coord& keySpace)
    : SegmentStream(
          std::unique_ptr<sci::Storage>(std::make_unique<sci::FileStorage>(
              path, sci::FileStorage::Mode::kOpenReadOnly)),
          windowBytes, keySpace) {}

SegmentStream::SegmentStream(std::unique_ptr<sci::Storage> storage,
                             std::size_t windowBytes,
                             const nd::Coord& keySpace)
    : storage_(std::move(storage)),
      windowBytes_(windowBytes),
      keySpace_(keySpace) {
  init();
}

SegmentStream::~SegmentStream() = default;

void SegmentStream::init() {
  if (windowBytes_ == 0) {
    throw std::invalid_argument("SegmentStream: window must be non-zero");
  }
  if (keySpace_.rank() == 0 || !keySpace_.isValidShape()) {
    throw std::invalid_argument(
        "SegmentStream: requires a valid non-empty keySpace");
  }
  fileSize_ = storage_->size();
  if (fileSize_ < Segment::kHeaderBytes) {
    throw std::out_of_range("SegmentStream: truncated");
  }
  std::array<std::byte, Segment::kHeaderBytes> hdr;
  storage_->readAt(0, hdr);
  header_ = Segment::peekHeader(hdr);
  fileOffset_ = Segment::kHeaderBytes;
  bytesRead_ = Segment::kHeaderBytes;
  // Same guard as deserialize: a corrupt count must not drive a huge
  // reserve downstream — every record costs at least kMinRecordBytes on
  // the wire.
  if (header_.numRecords >
      (fileSize_ - Segment::kHeaderBytes) / kMinRecordBytes) {
    throw std::out_of_range("SegmentStream: record count exceeds input");
  }
  if (header_.numRecords == 0) {
    finishChecks();
    return;  // exhausted_ stays true
  }
  exhausted_ = false;
  decodeNext();
}

void SegmentStream::refill() {
  // Slide the consumed prefix out, then fetch up to one window of new
  // bytes. A single record larger than the window keeps accumulating
  // across calls (the buffer grows past windowBytes_ only then).
  if (bufPos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(bufPos_));
    bufPos_ = 0;
  }
  const std::uint64_t want =
      std::min<std::uint64_t>(windowBytes_, fileSize_ - fileOffset_);
  const std::size_t old = buf_.size();
  buf_.resize(old + static_cast<std::size_t>(want));
  storage_->readAt(fileOffset_, std::span<std::byte>(buf_.data() + old,
                                                     static_cast<std::size_t>(want)));
  fileOffset_ += want;
  bytesRead_ += want;
  peakWindow_ = std::max(peakWindow_, buf_.size());
}

void SegmentStream::decodeNext() {
  while (!tryDecode()) {
    if (fileOffset_ >= fileSize_) {
      throw std::out_of_range("SegmentStream: truncated");
    }
    refill();
  }
  ++decoded_;
  repSum_ += cur_.represents;
}

bool SegmentStream::tryDecode() {
  const std::byte* base = buf_.data();
  const std::byte* p = base + bufPos_;
  const std::byte* end = base + buf_.size();
  if (end - p < 8) return false;
  const std::uint64_t rank = loadU64(p);
  if (rank > nd::kMaxRank) {
    throw std::runtime_error("SegmentStream: bad key rank");
  }
  const std::size_t fixed = 8 + 8 * static_cast<std::size_t>(rank) + 16;
  if (static_cast<std::size_t>(end - p) < fixed) return false;
  p += 8;
  nd::Coord key = nd::Coord::zeros(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    key[d] = static_cast<nd::Index>(loadU64(p));
    p += 8;
  }
  const std::optional<std::uint64_t> lin = nd::linearizeWithin(key, keySpace_);
  if (!lin) throw std::out_of_range("SegmentStream: key outside key space");
  const std::uint64_t represents = loadU64(p);
  p += 8;
  const std::uint64_t kindWord = loadU64(p);
  p += 8;
  Value value;
  switch (kindWord) {
    case 0:
      if (end - p < 8) return false;
      value = Value::scalar(loadF64(p));
      p += 8;
      break;
    case 1: {
      if (end - p < 4 * 8) return false;
      Partial pa;
      pa.sum = loadF64(p);
      pa.min = loadF64(p + 8);
      pa.max = loadF64(p + 16);
      pa.count = static_cast<std::int64_t>(loadU64(p + 24));
      p += 4 * 8;
      value = Value::partial(pa);
      break;
    }
    case 2: {
      if (end - p < 8) return false;
      const std::uint64_t n = loadU64(p);
      // Bound against ALL remaining file bytes (buffered + unfetched):
      // a garbage length must throw, not refill forever.
      const std::uint64_t rest = static_cast<std::uint64_t>(end - p) - 8 +
                                 (fileSize_ - fileOffset_);
      if (n > rest / 8) {
        throw std::out_of_range("SegmentStream: list length exceeds input");
      }
      if (static_cast<std::uint64_t>(end - p) < 8 + 8 * n) return false;
      p += 8;
      std::vector<double> xs(n);
      if constexpr (std::endian::native == std::endian::little) {
        if (n > 0) std::memcpy(xs.data(), p, static_cast<std::size_t>(n) * 8);
      } else {
        for (std::uint64_t i = 0; i < n; ++i) xs[i] = loadF64(p + 8 * i);
      }
      p += 8 * n;
      value = Value::list(std::move(xs));
      break;
    }
    default:
      throw std::runtime_error("SegmentStream: bad value kind");
  }
  // Commit: nothing above mutated stream state, so a false return (from
  // any insufficient-bytes check) leaves the cursor untouched.
  bufPos_ = static_cast<std::size_t>(p - base);
  cur_.key = std::move(key);
  cur_.represents = represents;
  cur_.value = std::move(value);
  curLin_ = *lin;
  return true;
}

void SegmentStream::advance() {
  if (exhausted_) {
    throw std::logic_error("SegmentStream: advance past end");
  }
  if (decoded_ == header_.numRecords) {
    finishChecks();
    exhausted_ = true;
    cur_ = KeyValue{};
    return;
  }
  decodeNext();
}

KeyValue SegmentStream::take() {
  KeyValue kv = std::move(cur_);
  advance();
  return kv;
}

void SegmentStream::finishChecks() {
  // Unconsumed buffered bytes or unfetched file bytes after the last
  // record are both trailing garbage.
  if (bufPos_ < buf_.size() || fileOffset_ < fileSize_) {
    throw std::runtime_error("SegmentStream: trailing bytes");
  }
  if (repSum_ != header_.represents) {
    throw std::runtime_error("SegmentStream: annotation mismatch");
  }
}

SegmentMerger::SegmentMerger(std::span<const Segment* const> segments) {
  std::vector<Input> inputs(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    inputs[i].segment = segments[i];
  }
  init(inputs);
}

SegmentMerger::SegmentMerger(std::span<const Input> inputs) { init(inputs); }

void SegmentMerger::init(std::span<const Input> inputs) {
  // Cursor creation order == input order: the heap's evolution depends
  // only on key comparisons and this sequence, never on which KIND of
  // source carries the records — the bit-identical-output property the
  // out-of-core parity suite asserts.
  for (const Input& in : inputs) {
    Cursor c{};
    if (in.segment != nullptr && !in.segment->empty()) {
      c.segment = in.segment;
      if (in.segment->packed()) {
        // Iterate the packed form directly — merging never builds the
        // segment's KeyValue view.
        c.kind = Kind::kPacked;
        c.packed = in.segment->packedRecords().data();
        c.count = in.segment->packedRecords().size();
      } else {
        c.kind = Kind::kMaterialized;
        c.recs = in.segment->records().data();
        c.count = in.segment->records().size();
        c.lin = in.segment->linearKeys().data();
      }
    } else if (in.stream != nullptr && !in.stream->exhausted()) {
      c.kind = Kind::kStream;
      c.stream = in.stream;
    } else if (in.run != nullptr && !in.run->empty()) {
      if (in.runLin == nullptr) {
        throw std::logic_error("SegmentMerger: run input lacks linear keys");
      }
      c.kind = Kind::kRun;
      c.recs = in.run->data();
      c.count = in.run->size();
      c.lin = in.runLin;
    } else {
      continue;  // empty or absent input
    }
    heap_.push_back(c);
  }
  // Build a binary min-heap on the cursors' current keys.
  for (std::size_t i = heap_.size(); i-- > 0;) siftDown(i);
}

std::uint64_t SegmentMerger::linAt(const Cursor& c) const {
  switch (c.kind) {
    case Kind::kPacked:
      return c.packed[c.pos].lin;
    case Kind::kStream:
      return c.stream->currentLin();
    case Kind::kRun:
    case Kind::kMaterialized:
      break;
  }
  return c.lin[c.pos];
}

nd::Coord SegmentMerger::topKey() const {
  const Cursor& c = heap_.front();
  switch (c.kind) {
    case Kind::kPacked:
      return nd::delinearize(static_cast<nd::Index>(c.packed[c.pos].lin),
                             c.segment->keySpaceShape());
    case Kind::kStream:
      return c.stream->current().key;
    case Kind::kRun:
    case Kind::kMaterialized:
      break;
  }
  return c.recs[c.pos].key;
}

std::uint64_t SegmentMerger::topLin() const { return linAt(heap_.front()); }

const KeyValue& SegmentMerger::topRecord() const {
  return heap_.front().recs[heap_.front().pos];
}

void SegmentMerger::requireRunCursors() const {
  for (const Cursor& c : heap_) {
    if (c.kind != Kind::kRun && c.kind != Kind::kMaterialized) {
      throw std::logic_error(
          "SegmentMerger::forEachRecord: needs run or materialized inputs");
    }
  }
}

std::uint64_t SegmentMerger::takeTopValue() {
  Cursor& c = heap_.front();
  std::uint64_t represents = 0;
  switch (c.kind) {
    case Kind::kRun:
    case Kind::kMaterialized: {
      const KeyValue& kv = c.recs[c.pos];
      groupValues_.push_back(&kv.value);
      represents = kv.represents;
      break;
    }
    case Kind::kPacked: {
      const PackedRecord& r = c.packed[c.pos];
      represents = r.represents;
      switch (r.kind) {
        case ValueKind::kScalar:
          hold_.push_back(Value::scalar(r.payload.scalar));
          groupValues_.push_back(&hold_.back());
          break;
        case ValueKind::kPartial:
          hold_.push_back(Value::partial(r.payload.partial));
          groupValues_.push_back(&hold_.back());
          break;
        case ValueKind::kList:
          // In place: the reducer reads the segment's own list. Neither
          // a copy nor a move — the segment stays intact (recovery may
          // republish it, and a warm cache entry serves other jobs).
          groupValues_.push_back(
              &c.segment->packedListAt(r.payload.listIndex));
          break;
      }
      break;
    }
    case Kind::kStream: {
      represents = c.stream->current().represents;
      hold_.push_back(c.stream->takeValue());
      groupValues_.push_back(&hold_.back());
      break;
    }
  }
  pop();
  return represents;
}

bool SegmentMerger::cursorLess(const Cursor& a, const Cursor& b) const {
  return linAt(a) < linAt(b);
}

void SegmentMerger::siftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = i;
    std::size_t l = 2 * i + 1;
    std::size_t r = 2 * i + 2;
    if (l < n && cursorLess(heap_[l], heap_[smallest])) smallest = l;
    if (r < n && cursorLess(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

void SegmentMerger::pop() {
  Cursor& c = heap_.front();
  bool more;
  if (c.kind == Kind::kStream) {
    c.stream->advance();
    more = !c.stream->exhausted();
  } else {
    more = c.pos + 1 < c.count;
    if (more) ++c.pos;
  }
  if (!more) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
  }
  siftDown(0);
}

}  // namespace sidr::mr
