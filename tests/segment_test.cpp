#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <set>

#include "mapreduce/combiners.hpp"
#include "mapreduce/partitioners.hpp"
#include "mapreduce/segment.hpp"
#include "scifile/storage.hpp"

namespace sidr::mr {
namespace {

TEST(Partial, MergeTracksAllAggregates) {
  Partial p = Partial::ofValue(3.0);
  p.merge(Partial::ofValue(-1.0));
  p.merge(Partial::ofValue(10.0));
  EXPECT_EQ(p.sum, 12.0);
  EXPECT_EQ(p.min, -1.0);
  EXPECT_EQ(p.max, 10.0);
  EXPECT_EQ(p.count, 3);
  EXPECT_DOUBLE_EQ(p.mean(), 4.0);
}

TEST(Partial, MergeWithEmpty) {
  Partial empty;
  Partial p = Partial::ofValue(5.0);
  empty.merge(p);
  EXPECT_EQ(empty, p);
  Partial q = Partial::ofValue(7.0);
  q.merge(Partial{});
  EXPECT_EQ(q.count, 1);
  EXPECT_EQ(q.sum, 7.0);
}

TEST(Value, KindAccessors) {
  Value s = Value::scalar(2.5);
  EXPECT_EQ(s.kind(), ValueKind::kScalar);
  EXPECT_EQ(s.asScalar(), 2.5);
  EXPECT_THROW(s.asList(), std::logic_error);

  Value l = Value::list({1.0, 2.0});
  EXPECT_EQ(l.kind(), ValueKind::kList);
  EXPECT_EQ(l.asList().size(), 2u);
  EXPECT_THROW(l.asPartial(), std::logic_error);

  Value p = Value::partial(Partial::ofValue(1.0));
  EXPECT_EQ(p.kind(), ValueKind::kPartial);
  EXPECT_EQ(p.asPartial().count, 1);
  EXPECT_THROW(p.asScalar(), std::logic_error);
}

std::vector<KeyValue> sampleRecords() {
  return {
      {nd::Coord{2, 1}, Value::scalar(5.0), 1},
      {nd::Coord{0, 3}, Value::partial(Partial::ofValue(2.0)), 4},
      {nd::Coord{1, 0}, Value::list({3.0, 1.0, 2.0}), 3},
      {nd::Coord{0, 1}, Value::list({}), 2},
  };
}

/// Key space of sampleRecords().
const nd::Coord kSampleSpace{3, 4};

TEST(Segment, HeaderAnnotationsSumRepresents) {
  Segment seg(7, 3, sampleRecords(), kSampleSpace);
  EXPECT_EQ(seg.header().mapTask, 7u);
  EXPECT_EQ(seg.header().keyblock, 3u);
  EXPECT_EQ(seg.header().numRecords, 4u);
  EXPECT_EQ(seg.header().represents, 1u + 4u + 3u + 2u);
}

TEST(Segment, SortByKey) {
  Segment seg(0, 0, sampleRecords(), kSampleSpace);
  EXPECT_FALSE(seg.isSorted());
  seg.sortByKey();
  EXPECT_TRUE(seg.isSorted());
  EXPECT_EQ(seg.records().front().key, (nd::Coord{0, 1}));
  EXPECT_EQ(seg.records().back().key, (nd::Coord{2, 1}));
}

TEST(Segment, SerializeRoundTrip) {
  Segment seg(9, 2, sampleRecords(), kSampleSpace);
  seg.sortByKey();
  auto bytes = seg.serialize();
  Segment back = Segment::deserialize(bytes, kSampleSpace);
  EXPECT_EQ(back.header(), seg.header());
  ASSERT_EQ(back.records().size(), seg.records().size());
  for (std::size_t i = 0; i < seg.records().size(); ++i) {
    EXPECT_EQ(back.records()[i].key, seg.records()[i].key);
    EXPECT_EQ(back.records()[i].value, seg.records()[i].value);
    EXPECT_EQ(back.records()[i].represents, seg.records()[i].represents);
  }
}

TEST(Segment, PeekHeaderWithoutParsingRecords) {
  // Section 3.2.1: reduces tally annotations "without having to read
  // and parse those files" — the header must be readable standalone.
  Segment seg(4, 1, sampleRecords(), kSampleSpace);
  auto bytes = seg.serialize();
  SegmentHeader h = Segment::peekHeader(bytes);
  EXPECT_EQ(h, seg.header());
  // Header parse also works on a truncated buffer holding only 32 bytes.
  std::vector<std::byte> headOnly(bytes.begin(), bytes.begin() + 32);
  EXPECT_EQ(Segment::peekHeader(headOnly), seg.header());
}

TEST(Segment, DeserializeRejectsTruncation) {
  Segment seg(0, 0, sampleRecords(), kSampleSpace);
  auto bytes = seg.serialize();
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(Segment::deserialize(bytes, kSampleSpace), std::out_of_range);
}

TEST(Segment, SerializedSizeIsExact) {
  for (auto& records :
       {sampleRecords(), std::vector<KeyValue>{},
        std::vector<KeyValue>{{nd::Coord{0, 0}, Value::scalar(1.0), 1}}}) {
    Segment seg(1, 2, records, kSampleSpace);
    EXPECT_EQ(seg.serializedSize(), seg.serialize().size());
  }
}

TEST(Segment, DeserializeRejectsEveryTruncationPoint) {
  // Cutting the encoding anywhere must throw — never crash, never
  // succeed with partial data.
  Segment seg(3, 1, sampleRecords(), kSampleSpace);
  auto bytes = seg.serialize();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::byte> prefix(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(Segment::deserialize(prefix, kSampleSpace), std::exception)
        << "prefix length " << cut;
  }
}

TEST(Segment, DeserializeRejectsCorruptRecordCount) {
  // A corrupt header claiming a huge record count must be rejected by
  // comparing against the remaining byte count, BEFORE any reserve.
  Segment seg(0, 0, sampleRecords(), kSampleSpace);
  auto bytes = seg.serialize();
  auto writeU64At = [&](std::size_t off, std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      bytes[off + static_cast<std::size_t>(b)] =
          static_cast<std::byte>((x >> (b * 8)) & 0xff);
    }
  };
  writeU64At(16, std::uint64_t{1} << 60);  // numRecords word
  EXPECT_THROW(Segment::deserialize(bytes, kSampleSpace), std::out_of_range);
}

TEST(Segment, DeserializeRejectsCorruptListLength) {
  const nd::Coord space{2};
  Segment seg(0, 0, {{nd::Coord{1}, Value::list({1.0, 2.0}), 1}}, space);
  auto bytes = seg.serialize();
  // Layout: header (32) + rank (8) + 1 coord (8) + represents (8) +
  // kind (8) = 64 bytes before the list length word.
  std::uint64_t huge = std::uint64_t{1} << 60;
  for (int b = 0; b < 8; ++b) {
    bytes[64 + static_cast<std::size_t>(b)] =
        static_cast<std::byte>((huge >> (b * 8)) & 0xff);
  }
  EXPECT_THROW(Segment::deserialize(bytes, space), std::out_of_range);
}

TEST(Segment, DeserializeRejectsCorruptRank) {
  const nd::Coord space{2};
  Segment seg(0, 0, {{nd::Coord{1}, Value::scalar(2.0), 1}}, space);
  auto bytes = seg.serialize();
  bytes[32] = static_cast<std::byte>(200);  // rank word: > kMaxRank
  EXPECT_THROW(Segment::deserialize(bytes, space), std::runtime_error);
}

TEST(Segment, DeserializeRejectsTrailingBytes) {
  Segment seg(0, 0, sampleRecords(), kSampleSpace);
  auto bytes = seg.serialize();
  bytes.push_back(std::byte{0});
  EXPECT_THROW(Segment::deserialize(bytes, kSampleSpace), std::runtime_error);
}

TEST(Segment, DecodersRejectKeysOutsideKeySpace) {
  // Structurally valid bytes whose key lies outside the decoder's key
  // space (or has the wrong rank) fail at decode, typed, on both
  // decoders.
  Segment seg(0, 0, {{nd::Coord{5, 5}, Value::scalar(1.0), 1}},
              nd::Coord{8, 8});
  const auto bytes = seg.serialize();
  for (const nd::Coord& space : {nd::Coord{4, 4}, nd::Coord{64}}) {
    SCOPED_TRACE(space.toString());
    EXPECT_THROW(Segment::deserialize(bytes, space), std::out_of_range);
    auto storage = std::make_unique<sci::MemoryStorage>();
    storage->writeAt(0, bytes);
    EXPECT_THROW(SegmentStream(std::move(storage), 64, space),
                 std::out_of_range);
  }
  EXPECT_THROW(Segment::deserialize(bytes, nd::Coord()),
               std::invalid_argument);
}

TEST(Segment, MaterializedSegmentsOnlyConfirmSortedness) {
  // Only the packed form sorts; a decoded segment is checked, not
  // re-sorted.
  Segment unsorted(0, 0, sampleRecords(), kSampleSpace);
  Segment decoded = Segment::deserialize(unsorted.serialize(), kSampleSpace);
  EXPECT_FALSE(decoded.packed());
  EXPECT_THROW(decoded.sortByKey(), std::logic_error);
  unsorted.sortByKey();
  Segment sorted = Segment::deserialize(unsorted.serialize(), kSampleSpace);
  SortStats& stats = sortStats();
  stats.reset();
  sorted.sortByKey();
  EXPECT_EQ(stats.sortedSkips, 1u);
}

TEST(Segment, RoundTripPropertyAllValueKinds) {
  // Randomized round-trip sweep over every ValueKind, ranks 1..4 and
  // empty segments.
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t rank = 1 + rng() % 4;
    const nd::Coord space = nd::Coord::filled(rank, 1000);
    std::size_t count = trial == 0 ? 0 : rng() % 40;
    std::vector<KeyValue> records;
    for (std::size_t i = 0; i < count; ++i) {
      KeyValue kv;
      nd::Coord key = nd::Coord::zeros(rank);
      for (std::size_t d = 0; d < rank; ++d) {
        key[d] = static_cast<nd::Index>(rng() % 1000);
      }
      kv.key = key;
      kv.represents = rng() % 1000;
      switch (rng() % 3) {
        case 0:
          kv.value = Value::scalar(static_cast<double>(rng() % 997) / 13.0);
          break;
        case 1: {
          Partial p;
          p.sum = static_cast<double>(rng() % 997) / 7.0;
          p.min = -p.sum;
          p.max = p.sum * 2;
          p.count = static_cast<std::int64_t>(rng() % 100);
          kv.value = Value::partial(p);
          break;
        }
        default: {
          std::vector<double> xs(rng() % 9);  // includes empty lists
          for (auto& x : xs) x = static_cast<double>(rng() % 997) / 3.0;
          kv.value = Value::list(std::move(xs));
          break;
        }
      }
      records.push_back(std::move(kv));
    }
    Segment seg(static_cast<std::uint32_t>(rng() % 64),
                static_cast<std::uint32_t>(rng() % 16), std::move(records),
                space);
    auto bytes = seg.serialize();
    ASSERT_EQ(bytes.size(), seg.serializedSize());
    Segment back = Segment::deserialize(bytes, space);
    EXPECT_EQ(back.header(), seg.header());
    ASSERT_EQ(back.records().size(), seg.records().size());
    for (std::size_t i = 0; i < seg.records().size(); ++i) {
      EXPECT_EQ(back.records()[i].key, seg.records()[i].key);
      EXPECT_EQ(back.records()[i].value, seg.records()[i].value);
      EXPECT_EQ(back.records()[i].represents, seg.records()[i].represents);
    }
  }
}

TEST(Segment, EmptySegment) {
  Segment seg(1, 2, std::vector<KeyValue>{}, kSampleSpace);
  EXPECT_TRUE(seg.empty());
  EXPECT_EQ(seg.header().represents, 0u);
  Segment back = Segment::deserialize(seg.serialize(), kSampleSpace);
  EXPECT_TRUE(back.empty());
}

TEST(Segment, CombineWithMergesEqualKeys) {
  Segment seg(0, 0,
              {{nd::Coord{1}, Value::partial(Partial::ofValue(2.0)), 1},
               {nd::Coord{1}, Value::partial(Partial::ofValue(4.0)), 2},
               {nd::Coord{2}, Value::partial(Partial::ofValue(9.0)), 1},
               {nd::Coord{1}, Value::partial(Partial::ofValue(6.0)), 1}},
              nd::Coord{3});
  seg.sortByKey();
  std::uint64_t representsBefore = seg.header().represents;
  PartialMergeCombiner combiner;
  seg.combineWith(combiner);
  ASSERT_EQ(seg.records().size(), 2u);
  EXPECT_EQ(seg.records()[0].key, (nd::Coord{1}));
  EXPECT_EQ(seg.records()[0].value.asPartial().sum, 12.0);
  EXPECT_EQ(seg.records()[0].value.asPartial().count, 3);
  EXPECT_EQ(seg.records()[0].represents, 4u);
  EXPECT_EQ(seg.records()[1].value.asPartial().sum, 9.0);
  // The count annotation total is invariant under combining
  // (section 3.2.1: combined pairs still represent their inputs).
  EXPECT_EQ(seg.header().represents, representsBefore);
  EXPECT_EQ(seg.header().numRecords, 2u);
  // Serialization stays self-consistent after combining.
  Segment back = Segment::deserialize(seg.serialize(), nd::Coord{3});
  EXPECT_EQ(back.header(), seg.header());
}

TEST(Segment, ListConcatCombiner) {
  Segment seg(0, 0,
              {{nd::Coord{5}, Value::list({1.0, 2.0}), 2},
               {nd::Coord{5}, Value::list({3.0}), 1}},
              nd::Coord{6});
  seg.sortByKey();
  ListConcatCombiner combiner;
  seg.combineWith(combiner);
  ASSERT_EQ(seg.records().size(), 1u);
  EXPECT_EQ(seg.records()[0].value.asList(),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(seg.records()[0].represents, 3u);
}

TEST(SegmentMerger, GroupsAcrossSegments) {
  Segment a(0, 0,
            {{nd::Coord{1}, Value::scalar(1.0), 1},
             {nd::Coord{3}, Value::scalar(3.0), 1}},
            nd::Coord{4});
  Segment b(1, 0,
            {{nd::Coord{1}, Value::scalar(10.0), 2},
             {nd::Coord{2}, Value::scalar(2.0), 1}},
            nd::Coord{4});
  a.sortByKey();
  b.sortByKey();
  std::vector<const Segment*> segs{&a, &b};
  SegmentMerger merger(segs);
  std::vector<std::pair<nd::Coord, std::size_t>> groups;
  std::vector<std::uint64_t> reps;
  merger.forEachGroup([&](const nd::Coord& key,
                          std::span<const Value* const> values,
                          std::uint64_t represents) {
    groups.emplace_back(key, values.size());
    reps.push_back(represents);
  });
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], std::make_pair(nd::Coord{1}, std::size_t{2}));
  EXPECT_EQ(groups[1], std::make_pair(nd::Coord{2}, std::size_t{1}));
  EXPECT_EQ(groups[2], std::make_pair(nd::Coord{3}, std::size_t{1}));
  EXPECT_EQ(reps, (std::vector<std::uint64_t>{3, 1, 1}));
}

TEST(SegmentMerger, ManySegmentsStaySorted) {
  std::vector<Segment> segs;
  for (std::uint32_t m = 0; m < 10; ++m) {
    std::vector<KeyValue> recs;
    for (nd::Index k = 0; k < 20; ++k) {
      recs.push_back({nd::Coord{(k * 7 + m) % 40}, Value::scalar(1.0), 1});
    }
    Segment s(m, 0, std::move(recs), nd::Coord{40});
    s.sortByKey();
    segs.push_back(std::move(s));
  }
  std::vector<const Segment*> ptrs;
  for (const auto& s : segs) ptrs.push_back(&s);
  SegmentMerger merger(ptrs);
  nd::Coord prev;
  bool first = true;
  std::size_t total = 0;
  merger.forEachGroup([&](const nd::Coord& key,
                          std::span<const Value* const> values,
                          std::uint64_t) {
    if (!first) {
      EXPECT_LT(prev, key);
    }
    prev = key;
    first = false;
    total += values.size();
  });
  EXPECT_EQ(total, 200u);
}

/// Two packed segments mixing list, scalar and partial values with
/// shared keys, sorted as a map task leaves them.
std::vector<Segment> packedListSegments() {
  const nd::Coord keySpace{6, 5};
  std::vector<Segment> segs;
  for (std::uint32_t m = 0; m < 2; ++m) {
    std::vector<KeyValue> recs;
    for (nd::Index k = 0; k < 12; ++k) {
      const nd::Coord key{(k * 5 + m) % 6, (k + 2 * m) % 5};
      const double x = static_cast<double>(10 * m + k);
      Value v = k % 4 == 3   ? Value::scalar(x)
                : k % 4 == 2 ? Value::partial(Partial::ofValue(x))
                             : Value::list({x, x + 0.5, -x});
      recs.push_back({key, std::move(v), 1 + m});
    }
    Segment seg(m, 0, std::move(recs), keySpace);
    seg.sortByKey();
    segs.push_back(std::move(seg));
  }
  return segs;
}

struct MergedGroup {
  nd::Coord key;
  std::vector<Value> values;
  std::uint64_t represents;
  friend bool operator==(const MergedGroup&, const MergedGroup&) = default;
};

std::vector<MergedGroup> mergeGroups(const std::vector<Segment>& segs) {
  std::vector<const Segment*> ptrs;
  for (const Segment& s : segs) ptrs.push_back(&s);
  SegmentMerger merger(ptrs);
  std::vector<MergedGroup> groups;
  merger.forEachGroup([&](const nd::Coord& key,
                          std::span<const Value* const> values,
                          std::uint64_t represents) {
    MergedGroup g{key, {}, represents};
    for (const Value* v : values) g.values.push_back(*v);
    groups.push_back(std::move(g));
  });
  return groups;
}

TEST(SegmentMerger, PackedListsReachReducersInPlace) {
  const std::vector<Segment> segs = packedListSegments();
  std::set<const Value*> own;
  for (const Segment& s : segs) {
    ASSERT_TRUE(s.packed());
    for (const PackedRecord& r : s.packedRecords()) {
      if (r.kind == ValueKind::kList) {
        own.insert(&s.packedListAt(r.payload.listIndex));
      }
    }
  }
  ASSERT_FALSE(own.empty());
  std::vector<const Segment*> ptrs{&segs[0], &segs[1]};
  SegmentMerger merger(ptrs);
  std::set<const Value*> seen;
  merger.forEachGroup([&](const nd::Coord&,
                          std::span<const Value* const> values,
                          std::uint64_t) {
    for (const Value* v : values) {
      if (v->kind() != ValueKind::kList) continue;
      EXPECT_TRUE(own.contains(v))
          << "a packed list must be the segment's own entry, not a copy";
      EXPECT_TRUE(seen.insert(v).second) << "each list is handed out once";
    }
  });
  EXPECT_EQ(seen, own);
}

TEST(SegmentMerger, MergingLeavesPackedSegmentsIntact) {
  const std::vector<Segment> segs = packedListSegments();
  std::vector<std::vector<std::byte>> before;
  for (const Segment& s : segs) before.push_back(s.serialize());
  const std::vector<MergedGroup> first = mergeGroups(segs);
  ASSERT_FALSE(first.empty());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_TRUE(segs[i].packed()) << "merging must not materialize";
    EXPECT_EQ(segs[i].serialize(), before[i]);
  }
  // A recovery re-run or a second job over warm cache entries merges
  // the very same segments again.
  EXPECT_EQ(mergeGroups(segs), first);
}

TEST(SegmentMerger, EmptyInput) {
  SegmentMerger merger(std::span<const Segment* const>{});
  int calls = 0;
  merger.forEachGroup([&](auto&&...) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ModuloPartitioner, LinearIndexModulo) {
  ModuloPartitioner part(nd::Coord{10, 10});
  EXPECT_EQ(part.partition(nd::Coord{0, 0}, 4), 0u);
  EXPECT_EQ(part.partition(nd::Coord{0, 5}, 4), 1u);
  EXPECT_EQ(part.partition(nd::Coord{2, 3}, 4), 23u % 4);
}

TEST(ModuloPartitioner, EvenKeysSkewToEvenReducers) {
  // The paper's section 4.3 pathology: patterned (all-even) keys starve
  // odd-numbered reduce tasks under modulo partitioning.
  ModuloPartitioner part(nd::Coord{16, 16});
  std::vector<int> counts(4, 0);
  for (nd::Index i = 0; i < 16; i += 2) {
    for (nd::Index j = 0; j < 16; j += 2) {
      ++counts[part.partition(nd::Coord{i, j}, 4)];
    }
  }
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[2], 0);
  EXPECT_EQ(counts[1], 0);  // odd reducers receive nothing
  EXPECT_EQ(counts[3], 0);
}

TEST(HashPartitioner, BreaksKeyPatterns) {
  HashPartitioner part;
  std::vector<int> counts(4, 0);
  for (nd::Index i = 0; i < 16; i += 2) {
    for (nd::Index j = 0; j < 16; j += 2) {
      ++counts[part.partition(nd::Coord{i, j}, 4)];
    }
  }
  for (int c : counts) EXPECT_GT(c, 0) << "hash must spread patterned keys";
}

// ---- streaming decoder ----

std::unique_ptr<sci::Storage> memoryStorageOf(
    std::span<const std::byte> bytes) {
  auto storage = std::make_unique<sci::MemoryStorage>();
  storage->writeAt(0, bytes);
  return storage;
}

/// Random sorted segment whose keys all lie inside `keySpace`, covering
/// every value kind (lists include empty and window-busting big ones).
Segment randomSortedSegment(std::mt19937_64& rng, const nd::Coord& keySpace,
                            std::size_t count) {
  nd::Index space = 1;
  for (std::size_t d = 0; d < keySpace.rank(); ++d) space *= keySpace[d];
  std::vector<KeyValue> records;
  for (std::size_t i = 0; i < count; ++i) {
    KeyValue kv;
    kv.key = nd::delinearize(static_cast<nd::Index>(
                                 rng() % static_cast<std::uint64_t>(space)),
                             keySpace);
    kv.represents = rng() % 1000;
    switch (rng() % 4) {
      case 0:
        kv.value = Value::scalar(static_cast<double>(rng() % 997) / 13.0);
        break;
      case 1: {
        Partial p;
        p.sum = static_cast<double>(rng() % 997) / 7.0;
        p.min = -p.sum;
        p.max = p.sum * 2;
        p.count = static_cast<std::int64_t>(rng() % 100);
        kv.value = Value::partial(p);
        break;
      }
      case 2: {
        std::vector<double> xs(rng() % 9);  // includes empty lists
        for (auto& x : xs) x = static_cast<double>(rng() % 997) / 3.0;
        kv.value = Value::list(std::move(xs));
        break;
      }
      default: {
        // Bigger than the smallest test window, so the stream's
        // grow-for-one-record path is exercised.
        std::vector<double> xs(40 + rng() % 30);
        for (auto& x : xs) x = static_cast<double>(rng() % 997);
        kv.value = Value::list(std::move(xs));
        break;
      }
    }
    records.push_back(std::move(kv));
  }
  Segment seg(1, 0, std::move(records), keySpace);
  seg.sortByKey();
  return seg;
}

void expectStreamMatches(SegmentStream& stream, const Segment& want,
                         const nd::Coord& keySpace) {
  EXPECT_EQ(stream.header(), want.header());
  for (std::size_t i = 0; i < want.records().size(); ++i) {
    ASSERT_FALSE(stream.exhausted());
    EXPECT_EQ(stream.currentLin(),
              static_cast<std::uint64_t>(
                  nd::linearize(want.records()[i].key, keySpace)));
    KeyValue got = stream.take();
    EXPECT_EQ(got.key, want.records()[i].key);
    EXPECT_EQ(got.value, want.records()[i].value);
    EXPECT_EQ(got.represents, want.records()[i].represents);
  }
  EXPECT_TRUE(stream.exhausted());
}

TEST(SegmentStream, WindowedDecodeMatchesDeserialize) {
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(99);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{80}}) {
    Segment seg = randomSortedSegment(rng, keySpace, count);
    auto bytes = seg.serialize();
    // Windows below one record, around a few records, and way past the
    // whole encoding must all decode identically.
    for (std::size_t window : {std::size_t{64}, std::size_t{4096},
                               std::size_t{1} << 20}) {
      SegmentStream stream(memoryStorageOf(bytes), window, keySpace);
      expectStreamMatches(stream, seg, keySpace);
      EXPECT_EQ(stream.bytesRead(), bytes.size());
      if (window == 64 && count == 80) {
        EXPECT_LT(stream.peakWindowBytes(), bytes.size())
            << "a small window must never buffer the whole file";
      }
    }
    // Every stream linearizes its keys: a key space is required.
    EXPECT_THROW(SegmentStream(memoryStorageOf(bytes), 512, nd::Coord()),
                 std::invalid_argument);
  }
}

TEST(SegmentStream, RejectsEveryTruncationPoint) {
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(31);
  Segment seg = randomSortedSegment(rng, keySpace, 12);
  auto bytes = seg.serialize();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::byte> prefix(bytes.data(), cut);
    EXPECT_THROW(
        {
          SegmentStream stream(memoryStorageOf(prefix), 64, keySpace);
          while (!stream.exhausted()) stream.advance();
        },
        std::exception)
        << "prefix length " << cut;
  }
}

TEST(SegmentStream, PackedEncodeMatchesMaterialized) {
  // The packed-direct encoder (the spill and eviction path) must emit
  // bytes identical to encoding the materialized view of the same
  // records, and must not build that view.
  const nd::Coord keySpace{4, 5};
  std::vector<PackedRecord> packed;
  std::vector<Value> lists;
  auto addPacked = [&](std::uint64_t lin, Value v, std::uint64_t rep) {
    PackedRecord r;
    r.lin = lin;
    r.represents = rep;
    r.kind = v.kind();
    switch (v.kind()) {
      case ValueKind::kScalar:
        r.payload.scalar = v.asScalar();
        break;
      case ValueKind::kPartial:
        r.payload.partial = v.asPartial();
        break;
      case ValueKind::kList:
        r.payload.listIndex = static_cast<std::uint32_t>(lists.size());
        lists.push_back(v);
        break;
    }
    packed.push_back(r);
  };
  addPacked(0, Value::scalar(1.0), 2);
  addPacked(1, Value::list({5.0, 6.0}), 1);  // dense run 0,1,2
  addPacked(2, Value::partial(Partial::ofValue(3.0)), 4);
  addPacked(4, Value::scalar(8.0), 1);  // row end: 4 -> 5 wraps a row
  addPacked(5, Value::scalar(9.0), 1);
  addPacked(7, Value::list({}), 9);
  addPacked(19, Value::scalar(-2.5), 1);
  Segment lazy(0, 0, std::move(packed), std::move(lists), keySpace);
  const std::vector<std::byte> lazyBytes = lazy.serialize();
  EXPECT_TRUE(lazy.packed()) << "encoding must not materialize";
  EXPECT_EQ(lazyBytes.size(), lazy.serializedSize());

  Segment eager = Segment::deserialize(lazyBytes, keySpace);
  ASSERT_FALSE(eager.packed());
  EXPECT_EQ(eager.serialize(), lazyBytes);
  EXPECT_EQ(eager.records()[4].key, (nd::Coord{1, 0}));

  // serializeInto reuses a larger buffer and leaves exactly the encoding.
  std::vector<std::byte> reused(lazyBytes.size() * 3, std::byte{0xab});
  lazy.serializeInto(reused);
  EXPECT_EQ(reused, lazyBytes);
  EXPECT_TRUE(lazy.packed());
}

// ---- readSegmentFile: the one whole-file spill reader ----

/// Writes `bytes` as a whole file under a per-test temp directory and
/// returns its path.
std::string writeSpillFile(const std::string& dirName,
                           std::span<const std::byte> bytes) {
  const auto dir = std::filesystem::temp_directory_path() / dirName;
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "map0_kb0.seg").string();
  sci::FileStorage file(path, sci::FileStorage::Mode::kCreate);
  file.writeAt(0, bytes);
  return path;
}

TEST(ReadSegmentFile, RoundTripMatchesAndCountsBytes) {
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(7);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{80}}) {
    SCOPED_TRACE(count);
    Segment seg = randomSortedSegment(rng, keySpace, count);
    const auto bytes = seg.serialize();
    const std::string path = writeSpillFile("sidr_read_seg_roundtrip", bytes);
    std::uint64_t bytesRead = 5;  // accumulates onto the caller's count
    Segment back = readSegmentFile(path, keySpace, bytesRead);
    EXPECT_EQ(bytesRead, 5 + bytes.size());
    EXPECT_EQ(back.header(), seg.header());
    ASSERT_EQ(back.records().size(), seg.records().size());
    for (std::size_t i = 0; i < seg.records().size(); ++i) {
      EXPECT_EQ(back.records()[i].key, seg.records()[i].key);
      EXPECT_EQ(back.records()[i].value, seg.records()[i].value);
      EXPECT_EQ(back.records()[i].represents, seg.records()[i].represents);
    }
    ASSERT_EQ(back.linearKeys().size(), seg.linearKeys().size());
    for (std::size_t i = 0; i < seg.linearKeys().size(); ++i) {
      EXPECT_EQ(back.linearKeys()[i], seg.linearKeys()[i]);
    }
  }
}

TEST(ReadSegmentFile, RejectsEveryTruncationPoint) {
  // A spill file cut anywhere (a torn write the commit rename should
  // have prevented) fails typed at read, never decodes partially.
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(37);
  Segment seg = randomSortedSegment(rng, keySpace, 6);
  const auto bytes = seg.serialize();
  const auto dir =
      std::filesystem::temp_directory_path() / "sidr_read_seg_truncate";
  std::filesystem::create_directories(dir);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string path =
        (dir / ("cut" + std::to_string(cut) + ".seg")).string();
    {
      sci::FileStorage file(path, sci::FileStorage::Mode::kCreate);
      file.writeAt(0, std::span<const std::byte>(bytes.data(), cut));
    }
    std::uint64_t bytesRead = 0;
    EXPECT_THROW(readSegmentFile(path, keySpace, bytesRead), std::out_of_range)
        << "prefix length " << cut;
    std::filesystem::remove(path);
  }
}

TEST(ReadSegmentFile, RejectsKeySpaceMismatch) {
  Segment seg(0, 0, {{nd::Coord{5, 5}, Value::scalar(1.0), 1}},
              nd::Coord{8, 8});
  const std::string path =
      writeSpillFile("sidr_read_seg_keyspace", seg.serialize());
  std::uint64_t bytesRead = 0;
  for (const nd::Coord& space : {nd::Coord{4, 4}, nd::Coord{8, 8, 8}}) {
    EXPECT_THROW(readSegmentFile(path, space, bytesRead), std::out_of_range);
  }
  EXPECT_THROW(readSegmentFile(path, nd::Coord(), bytesRead),
               std::invalid_argument);
  EXPECT_EQ(readSegmentFile(path, nd::Coord{8, 8}, bytesRead).header(),
            seg.header());
}

TEST(ReadSegmentFile, MissingFileThrowsWithoutCountingBytes) {
  const auto dir =
      std::filesystem::temp_directory_path() / "sidr_read_seg_missing";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "map9_kb9.seg").string();
  std::filesystem::remove(path);
  std::uint64_t bytesRead = 11;
  EXPECT_THROW(readSegmentFile(path, nd::Coord{4, 4}, bytesRead),
               std::system_error);
  EXPECT_EQ(bytesRead, 11u);
}

TEST(SegmentStream, RejectsStructuralCorruption) {
  const nd::Coord keySpace{4, 4};
  Segment seg(0, 0,
              {{nd::Coord{1, 2}, Value::scalar(2.0), 1},
               {nd::Coord{3, 0}, Value::list({1.0}), 2}},
              keySpace);
  auto drain = [&](std::span<const std::byte> bytes) {
    SegmentStream stream(memoryStorageOf(bytes), 64, keySpace);
    while (!stream.exhausted()) stream.advance();
  };
  {
    // Bad value-kind word.
    auto bytes = seg.serialize();
    // header(32) + rank(8) + 2 coords(16) + represents(8) = kind at 64.
    bytes[64] = std::byte{7};
    EXPECT_THROW(drain(bytes), std::runtime_error);
  }
  {
    // Trailing bytes after the last record.
    auto bytes = seg.serialize();
    bytes.push_back(std::byte{0});
    EXPECT_THROW(drain(bytes), std::runtime_error);
  }
  {
    // Header represents disagrees with the record sum.
    auto bytes = seg.serialize();
    bytes[24] = std::byte{0xff};  // represents word (little-endian)
    EXPECT_THROW(drain(bytes), std::runtime_error);
  }
}

/// Decodes `bytes` with every spill-file decoder and returns normally
/// or throws only the decoders' documented typed errors
/// (std::runtime_error for structure, std::out_of_range for lengths
/// and keys); anything else — std::bad_alloc from a trusted length,
/// std::logic_error, a crash — escapes to fail the test.
void decodeSpillBytes(std::span<const std::byte> bytes,
                      const nd::Coord& keySpace, std::size_t window) {
  auto typed = [](auto&& decode) {
    try {
      decode();
    } catch (const std::runtime_error&) {
    } catch (const std::out_of_range&) {
    }
  };
  typed([&] { Segment::deserialize(bytes, keySpace); });
  typed([&] {
    SegmentStream stream(memoryStorageOf(bytes), window, keySpace);
    while (!stream.exhausted()) stream.take();
  });
}

TEST(SpillDecoderFuzz, SeededMutationsFailTypedOrDecode) {
  // Shaped like the wire-framing fuzz: 3000 seeded inputs, a third
  // random bytes, the rest valid spill files with 1-8 byte
  // flips, a quarter of those then truncated, some with a random slice
  // spliced in. Every decode must succeed or throw a typed error; a
  // hang would time the test out.
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(0x5e9f00du);
  std::vector<Segment> seeds;
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{12},
                            std::size_t{80}}) {
    seeds.push_back(randomSortedSegment(rng, keySpace, count));
  }
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::byte> bytes;
    if (iter % 3 == 0) {
      bytes.resize(rng() % 600);
      for (auto& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
    } else {
      const Segment& seed = seeds[rng() % seeds.size()];
      bytes = seed.serialize();
      const std::size_t flips = 1 + rng() % 8;
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng() % bytes.size()] ^=
            static_cast<std::byte>(1 + (rng() & 0xfe));
      }
      if (rng() % 4 == 0) bytes.resize(rng() % (bytes.size() + 1));
      if (rng() % 8 == 0 && !bytes.empty()) {
        const auto at = static_cast<std::ptrdiff_t>(rng() % bytes.size());
        const auto len = static_cast<std::ptrdiff_t>(
            rng() % (bytes.size() - static_cast<std::size_t>(at) + 1));
        const std::vector<std::byte> slice(bytes.begin() + at,
                                           bytes.begin() + at + len);
        const auto to = static_cast<std::ptrdiff_t>(rng() % bytes.size());
        bytes.insert(bytes.begin() + to, slice.begin(), slice.end());
      }
    }
    decodeSpillBytes(bytes, keySpace, iter % 2 == 0 ? 64 : 4096);
  }
}

TEST(SegmentStream, MergerOverStreamsMatchesInMemory) {
  // Mixed-source merge: one resident segment, one streamed — group
  // sequence must be identical to merging both in memory.
  const nd::Coord keySpace{8, 8};
  std::mt19937_64 rng(5);
  Segment a = randomSortedSegment(rng, keySpace, 30);
  Segment b = randomSortedSegment(rng, keySpace, 45);
  auto bytesB = b.serialize();

  struct Group {
    nd::Coord key;
    std::vector<Value> values;
    std::uint64_t represents;
  };
  auto collect = [](SegmentMerger& merger) {
    std::vector<Group> groups;
    merger.forEachGroup([&](const nd::Coord& key,
                            std::span<const Value* const> values,
                            std::uint64_t represents) {
      Group g;
      g.key = key;
      for (const Value* v : values) g.values.push_back(*v);
      g.represents = represents;
      groups.push_back(std::move(g));
    });
    return groups;
  };

  std::vector<const Segment*> both{&a, &b};
  SegmentMerger reference{std::span<const Segment* const>(both)};
  auto want = collect(reference);

  SegmentStream streamB(memoryStorageOf(bytesB), 128, keySpace);
  std::vector<SegmentMerger::Input> inputs(2);
  inputs[0].segment = &a;
  inputs[1].stream = &streamB;
  SegmentMerger mixed{std::span<const SegmentMerger::Input>(inputs)};
  auto got = collect(mixed);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].represents, want[i].represents);
    ASSERT_EQ(got[i].values.size(), want[i].values.size());
    for (std::size_t j = 0; j < want[i].values.size(); ++j) {
      EXPECT_EQ(got[i].values[j], want[i].values[j]);
    }
  }
}

}  // namespace
}  // namespace sidr::mr
