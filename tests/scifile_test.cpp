#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/engine.hpp"
#include "scifile/cdl.hpp"
#include "scifile/dataset.hpp"
#include "scifile/output_writers.hpp"
#include "scihadoop/datagen.hpp"
#include "scihadoop/query_parser.hpp"
#include "scihadoop/record_reader.hpp"
#include "scihadoop/split_gen.hpp"
#include "sidr/planner.hpp"

namespace sidr::sci {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("sidr_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

Metadata paperMetadata() {
  Metadata meta;
  meta.addDimension("time", 365);
  meta.addDimension("lat", 250);
  meta.addDimension("lon", 200);
  meta.addVariable("temperature", DataType::kInt32, {"time", "lat", "lon"});
  return meta;
}

TEST(Metadata, DataTypeSizes) {
  EXPECT_EQ(dataTypeSize(DataType::kInt32), 4u);
  EXPECT_EQ(dataTypeSize(DataType::kInt64), 8u);
  EXPECT_EQ(dataTypeSize(DataType::kFloat32), 4u);
  EXPECT_EQ(dataTypeSize(DataType::kFloat64), 8u);
}

TEST(Metadata, VariableShapeAndSizes) {
  Metadata meta = paperMetadata();
  EXPECT_EQ(meta.variableShape(0), (nd::Coord{365, 250, 200}));
  EXPECT_EQ(meta.variableElementCount(0), 365LL * 250 * 200);
  EXPECT_EQ(meta.variableByteSize(0), 365ULL * 250 * 200 * 4);
}

TEST(Metadata, UnknownNamesThrow) {
  Metadata meta = paperMetadata();
  EXPECT_THROW(meta.variableIndex("windspeed"), std::invalid_argument);
  EXPECT_THROW(meta.addVariable("v", DataType::kInt32, {"nope"}),
               std::invalid_argument);
  EXPECT_THROW(meta.addDimension("bad", 0), std::invalid_argument);
}

TEST(Metadata, TextRenderingMatchesPaperFigure1) {
  // Figure 1 of the paper renders this exact structure.
  std::string text = paperMetadata().toText();
  EXPECT_NE(text.find("time = 365;"), std::string::npos);
  EXPECT_NE(text.find("lat = 250;"), std::string::npos);
  EXPECT_NE(text.find("lon = 200;"), std::string::npos);
  EXPECT_NE(text.find("int temperature(time, lat, lon);"),
            std::string::npos);
}

TEST(Metadata, SerializeRoundTrip) {
  Metadata meta = paperMetadata();
  meta.setAttribute("origin", "{0, 0, 0}");
  meta.setAttribute("note", "unit test");
  Metadata back = Metadata::deserialize(meta.serialize());
  EXPECT_EQ(back, meta);
  EXPECT_EQ(back.attribute("origin"), "{0, 0, 0}");
  EXPECT_EQ(back.attribute("missing"), "");
}

TEST(Metadata, AttributeReplace) {
  Metadata meta;
  meta.setAttribute("k", "v1");
  meta.setAttribute("k", "v2");
  EXPECT_EQ(meta.attribute("k"), "v2");
  EXPECT_EQ(meta.attributes().size(), 1u);
}

TEST(MemoryStorage, ReadWriteResize) {
  MemoryStorage s;
  std::vector<std::byte> data{std::byte{1}, std::byte{2}, std::byte{3}};
  s.writeAt(5, data);
  EXPECT_EQ(s.size(), 8u);
  std::vector<std::byte> back(3);
  s.readAt(5, back);
  EXPECT_EQ(back, data);
  EXPECT_THROW(s.readAt(7, back), std::out_of_range);
  s.resize(2);
  EXPECT_EQ(s.size(), 2u);
}

TEST(FileStorage, ReadWritePersistence) {
  TempDir dir;
  std::string path = dir.file("f.bin");
  std::vector<std::byte> data(100, std::byte{0xAB});
  {
    FileStorage s(path, FileStorage::Mode::kCreate);
    s.writeAt(10, data);
    s.flush();
    EXPECT_EQ(s.size(), 110u);
  }
  {
    FileStorage s(path, FileStorage::Mode::kOpenReadOnly);
    std::vector<std::byte> back(100);
    s.readAt(10, back);
    EXPECT_EQ(back, data);
    EXPECT_THROW(s.writeAt(0, data), std::logic_error);
  }
}

TEST(MemoryStorage, EmptyAccessOnEmptyStore) {
  MemoryStorage s;
  std::vector<std::byte> none;
  s.writeAt(0, none);
  s.readAt(0, none);
  EXPECT_EQ(s.size(), 0u);
}

TEST(FileStorage, ReadsSeeEarlierWritesWithoutFlush) {
  TempDir dir;
  FileStorage s(dir.file("f.bin"), FileStorage::Mode::kCreate);
  std::vector<std::byte> data(64, std::byte{0x5A});
  s.writeAt(8, data);
  EXPECT_EQ(s.size(), 72u);
  std::vector<std::byte> back(64);
  s.readAt(8, back);
  EXPECT_EQ(back, data);
  s.resize(80);
  std::vector<std::byte> tail(8, std::byte{0xFF});
  s.readAt(72, tail);
  EXPECT_EQ(tail, std::vector<std::byte>(8, std::byte{0}));
  EXPECT_THROW(s.readAt(76, tail), std::runtime_error);
}

std::byte patternByte(std::uint64_t offset) {
  return static_cast<std::byte>((offset * 131 + offset / 251) & 0xff);
}

TEST(FileStorage, ConcurrentReaderHammer) {
  // Parallel map tasks share one dataset's storage: every reader must
  // get exactly the bytes at its own offset while others read (and
  // write disjoint ranges) at the same time.
  TempDir dir;
  FileStorage s(dir.file("f.bin"), FileStorage::Mode::kCreate);
  constexpr std::uint64_t kShared = 1 << 18;
  constexpr std::uint64_t kPrivate = 1 << 12;
  constexpr std::size_t kThreads = 4;
  std::vector<std::byte> pattern(kShared);
  for (std::uint64_t i = 0; i < kShared; ++i) pattern[i] = patternByte(i);
  s.writeAt(0, pattern);

  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(t + 1);
      const std::uint64_t mine = kShared + t * kPrivate;
      std::vector<std::byte> buf;
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t off = rng() % kShared;
        buf.resize(static_cast<std::size_t>(rng() % (kShared - off) % 4096));
        s.readAt(off, buf);
        for (std::size_t j = 0; j < buf.size(); ++j) {
          if (buf[j] != patternByte(off + j)) ++failures[t];
        }
        // A private range: this thread's write must be visible to its
        // next read, whatever the other threads do meanwhile.
        const auto tag = static_cast<std::byte>(i & 0xff);
        std::vector<std::byte> word(8, tag);
        const std::uint64_t at = mine + rng() % (kPrivate - 8);
        s.writeAt(at, word);
        std::vector<std::byte> back(8);
        s.readAt(at, back);
        if (back != word) ++failures[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

TEST(FileStorage, OpenMissingFileThrows) {
  EXPECT_THROW(FileStorage("/nonexistent/dir/file.bin",
                           FileStorage::Mode::kOpenExisting),
               std::system_error);
}

TEST(Dataset, RegionRoundTripMemory) {
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, paperMetadata());
  nd::Region r(nd::Coord{100, 50, 20}, nd::Coord{3, 4, 5});
  std::vector<double> values(static_cast<std::size_t>(r.volume()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) - 30.0;
  }
  ds.writeRegion(0, r, values);
  EXPECT_EQ(ds.readRegion(0, r), values);
}

TEST(Dataset, RegionOutOfBoundsThrows) {
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, paperMetadata());
  nd::Region bad(nd::Coord{364, 0, 0}, nd::Coord{2, 1, 1});
  std::vector<double> v(2, 0.0);
  EXPECT_THROW(ds.writeRegion(0, bad, v), std::out_of_range);
  EXPECT_THROW(
      ds.writeRegion(0, nd::Region(nd::Coord{0, 0, 0}, nd::Coord{1, 1, 1}), v),
      std::invalid_argument);
}

TEST(Dataset, Int32TypeConversionTruncates) {
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, paperMetadata());
  nd::Region r(nd::Coord{0, 0, 0}, nd::Coord{1, 1, 2});
  ds.writeRegion(0, r, std::vector<double>{3.9, -2.9});
  std::vector<double> back = ds.readRegion(0, r);
  EXPECT_EQ(back[0], 3.0);   // int32 storage truncates
  EXPECT_EQ(back[1], -2.0);
}

TEST(Dataset, OpenRoundTripFile) {
  TempDir dir;
  std::string path = dir.file("ds.sndf");
  nd::Region r(nd::Coord{7, 8, 9}, nd::Coord{2, 2, 2});
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8};
  {
    auto storage = std::make_shared<FileStorage>(path,
                                                 FileStorage::Mode::kCreate);
    Dataset ds = Dataset::create(storage, paperMetadata());
    ds.writeRegion(0, r, values);
    storage->flush();
  }
  {
    auto storage = std::make_shared<FileStorage>(
        path, FileStorage::Mode::kOpenReadOnly);
    Dataset ds = Dataset::open(storage);
    EXPECT_EQ(ds.metadata(), paperMetadata());
    EXPECT_EQ(ds.readRegion(0, r), values);
  }
}

TEST(Dataset, OpenRejectsGarbage) {
  auto storage = std::make_shared<MemoryStorage>();
  std::vector<std::byte> junk(64, std::byte{0x5A});
  storage->writeAt(0, junk);
  EXPECT_THROW(Dataset::open(storage), std::runtime_error);
}

/// Opens `bytes` as an SNDF file and touches everything open() decoded:
/// metadata rendering, shapes and sizes, and one element of each
/// variable. Returns normally or throws whatever the decoders throw.
void openAndTouch(const std::vector<std::byte>& bytes) {
  auto storage = std::make_shared<MemoryStorage>();
  storage->writeAt(0, bytes);
  Dataset ds = Dataset::open(storage);
  const Metadata& meta = ds.metadata();
  (void)meta.toText();
  (void)ds.totalByteSize();
  for (std::size_t v = 0; v < meta.variables().size(); ++v) {
    const std::size_t rank = meta.variableShape(v).rank();
    (void)meta.variableByteSize(v);
    (void)ds.readRegion(
        v, nd::Region(nd::Coord::zeros(rank), nd::Coord::ones(rank)));
  }
}

/// Corrupt input may decode or be rejected, but only with the decoders'
/// typed errors: anything else (std::bad_alloc from a trusted length, a
/// crash, undefined behaviour under the UBSan leg) fails the run.
void expectOpenOrTypedError(const std::vector<std::byte>& bytes) {
  try {
    openAndTouch(bytes);
  } catch (const std::out_of_range&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::length_error&) {
  } catch (const std::runtime_error&) {
  }
}

TEST(Dataset, CorruptHeaderFuzzOnlyTypedErrors) {
  Metadata meta;
  meta.addDimension("time", 4);
  meta.addDimension("lat", 3);
  meta.addDimension("lon", 5);
  meta.addVariable("temperature", DataType::kInt32, {"time", "lat", "lon"});
  meta.addVariable("wind", DataType::kFloat64, {"lat", "lon"});
  meta.setAttribute("units", "K");
  auto storage = std::make_shared<MemoryStorage>();
  Dataset::create(storage, meta);
  std::vector<std::byte> valid(storage->size());
  storage->readAt(0, valid);
  openAndTouch(valid);  // the uncorrupted file opens cleanly

  // Every prefix: truncated magic, length word, metadata, payload.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    expectOpenOrTypedError(
        std::vector<std::byte>(valid.begin(),
                               valid.begin() + static_cast<long>(cut)));
  }
  // Seeded byte mutations confined to the header (magic, length word
  // and metadata), where every length and count the decoder trusts
  // lives; absurd dimension lengths must not overflow a size.
  std::uint64_t metaLen = 0;
  for (int b = 0; b < 8; ++b) {
    metaLen |=
        static_cast<std::uint64_t>(valid[8 + static_cast<std::size_t>(b)])
        << (b * 8);
  }
  const std::size_t headerBytes = 16 + static_cast<std::size_t>(metaLen);
  std::mt19937_64 rng(0x5d4fu);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::byte> bytes = valid;
    const std::size_t flips = 1 + rng() % 6;
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng() % headerBytes;
      // Half the mutations flip one byte; the rest write a short run of
      // 0xff, which turns any length, count or dimension word it lands
      // in into a huge value.
      if (rng() % 2 == 0) {
        bytes[at] ^= static_cast<std::byte>(1 + rng() % 255);
      } else {
        const std::size_t end = std::min(at + 1 + rng() % 8, headerBytes);
        for (std::size_t b = at; b < end; ++b) bytes[b] = std::byte{0xff};
      }
    }
    if (rng() % 5 == 0) bytes.resize(rng() % (bytes.size() + 1));
    expectOpenOrTypedError(bytes);
  }
}

TEST(Dataset, OpenRejectsMetadataLengthPastEnd) {
  // The length word is bounded by the file before anything is
  // allocated from it.
  auto storage = std::make_shared<MemoryStorage>();
  Dataset::create(storage, paperMetadata());
  std::vector<std::byte> head(16);
  storage->readAt(0, head);
  for (std::size_t b = 8; b < 16; ++b) head[b] = std::byte{0x7f};
  auto truncated = std::make_shared<MemoryStorage>();
  truncated->writeAt(0, head);
  EXPECT_THROW(Dataset::open(truncated), std::out_of_range);
}

TEST(Metadata, DeserializeRejectsWhatAddVariableRejects) {
  Metadata meta;
  meta.addDimension("x", 4);
  meta.addVariable("v", DataType::kFloat64, {"x"});
  const std::vector<std::byte> valid = meta.serialize();
  // Layout: nDims(8) + name "x"(8+1) + length(8) + nVars(8) + name
  // "v"(8+1) = the type word at offset 42, the rank word at 50.
  auto withWordAt = [&](std::size_t off, std::uint64_t x) {
    std::vector<std::byte> bytes = valid;
    for (int b = 0; b < 8; ++b) {
      bytes[off + static_cast<std::size_t>(b)] =
          static_cast<std::byte>((x >> (b * 8)) & 0xff);
    }
    return bytes;
  };
  ASSERT_EQ(Metadata::deserialize(withWordAt(42, 3)), meta);
  EXPECT_THROW(Metadata::deserialize(withWordAt(42, 4)), std::runtime_error);
  EXPECT_THROW(Metadata::deserialize(withWordAt(42, 255)), std::runtime_error);
  EXPECT_THROW(Metadata::deserialize(withWordAt(50, nd::kMaxRank + 1)),
               std::length_error);
  // A dimension so long the variable's byte size overflows.
  EXPECT_THROW(Metadata::deserialize(withWordAt(17, std::uint64_t{1} << 61)),
               std::length_error);
}

TEST(Dataset, FillWholeVariable) {
  Metadata meta;
  meta.addDimension("x", 100);
  meta.addDimension("y", 100);
  meta.addVariable("v", DataType::kFloat64, {"x", "y"});
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, meta);
  ds.fill(0, -99.0);
  auto all = ds.readRegion(0, nd::Region::wholeSpace(nd::Coord{100, 100}));
  for (double v : all) EXPECT_EQ(v, -99.0);
}

TEST(Dataset, MultipleVariablesHaveDisjointPayloads) {
  Metadata meta;
  meta.addDimension("x", 10);
  meta.addVariable("a", DataType::kFloat64, {"x"});
  meta.addVariable("b", DataType::kFloat64, {"x"});
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, meta);
  std::vector<double> va(10, 1.0);
  std::vector<double> vb(10, 2.0);
  nd::Region whole = nd::Region::wholeSpace(nd::Coord{10});
  ds.writeRegion(0, whole, va);
  ds.writeRegion(1, whole, vb);
  EXPECT_EQ(ds.readRegion(0, whole), va);
  EXPECT_EQ(ds.readRegion(1, whole), vb);
  EXPECT_EQ(ds.variableOffset(1) - ds.variableOffset(0), 80u);
}

TEST(OutputWriters, DenseChunkRoundTrip) {
  TempDir dir;
  nd::Coord total{52, 50, 200};
  nd::Region chunk(nd::Coord{13, 0, 0}, nd::Coord{13, 50, 200});
  std::vector<double> values(static_cast<std::size_t>(chunk.volume()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 97);
  }
  WriteReport rep = writeDenseChunk(dir.file("chunk.sndf"), "out",
                                    DataType::kFloat64, total, chunk, values);
  EXPECT_EQ(rep.bytesWritten, values.size() * 8);
  // Dense chunk file size ~ chunk bytes + small header, NOT total bytes.
  EXPECT_LT(rep.fileSize, values.size() * 8 + 4096);

  auto [origin, back] = readDenseChunk(dir.file("chunk.sndf"), "out");
  EXPECT_EQ(origin, (nd::Coord{13, 0, 0}));
  EXPECT_EQ(back, values);
}

TEST(OutputWriters, SentinelFileIsTotalSized) {
  TempDir dir;
  nd::Coord total{40, 40};
  std::vector<nd::Coord> coords{{3, 3}, {10, 20}, {39, 39}};
  std::vector<double> values{1.5, 2.5, 3.5};
  WriteReport rep =
      writeSentinelFile(dir.file("sent.sndf"), "out", DataType::kFloat64,
                        total, -9999.0, coords, values);
  // The file must hold the WHOLE output space regardless of how few
  // keys this reduce task owns — the Table 2 pathology.
  EXPECT_GE(rep.fileSize, 40u * 40u * 8u);

  auto storage = std::make_shared<FileStorage>(
      dir.file("sent.sndf"), FileStorage::Mode::kOpenReadOnly);
  Dataset ds = Dataset::open(storage);
  nd::Coord one = nd::Coord::ones(2);
  EXPECT_EQ(ds.readRegion(0, nd::Region(coords[1], one))[0], 2.5);
  EXPECT_EQ(ds.readRegion(0, nd::Region(nd::Coord{0, 0}, one))[0], -9999.0);
}

TEST(OutputWriters, CoordPairsRoundTrip) {
  TempDir dir;
  std::vector<nd::Coord> coords{{1, 2, 3}, {4, 5, 6}};
  std::vector<double> values{-1.25, 8.75};
  WriteReport rep = writeCoordPairs(dir.file("pairs.bin"), coords, values);
  // Storage overhead: rank coords + value per element, plus tiny header.
  EXPECT_EQ(rep.fileSize, 16u + 2u * (3u + 1u) * 8u);
  auto [backCoords, backValues] = readCoordPairs(dir.file("pairs.bin"));
  EXPECT_EQ(backCoords, coords);
  EXPECT_EQ(backValues, values);
}

TEST(OutputWriters, MismatchedSpansThrow) {
  TempDir dir;
  std::vector<nd::Coord> coords{{1, 1}};
  std::vector<double> values{1.0, 2.0};
  EXPECT_THROW(writeCoordPairs(dir.file("x.bin"), coords, values),
               std::invalid_argument);
  EXPECT_THROW(writeSentinelFile(dir.file("y.sndf"), "v", DataType::kFloat64,
                                 nd::Coord{4, 4}, 0.0, coords, values),
               std::invalid_argument);
}

TEST(Cdl, ParsesPaperFigure1) {
  Metadata meta = parseCdl(
      "dimensions:\n"
      "  time = 365;\n"
      "  lat = 250;\n"
      "  lon = 200;\n"
      "variables:\n"
      "  int temperature(time, lat, lon);\n");
  EXPECT_EQ(meta, paperMetadata());
}

TEST(Cdl, RoundTripsToText) {
  Metadata meta;
  meta.addDimension("x", 10);
  meta.addDimension("y", 20);
  meta.addVariable("a", DataType::kFloat64, {"x", "y"});
  meta.addVariable("b", DataType::kInt64, {"y"});
  meta.addVariable("c", DataType::kFloat32, {"x"});
  EXPECT_EQ(parseCdl(meta.toText()), meta);
}

TEST(Cdl, AllTypes) {
  Metadata meta = parseCdl(
      "dimensions:\n n = 4;\n"
      "variables:\n"
      " int a(n);\n long b(n);\n float c(n);\n double d(n);\n");
  EXPECT_EQ(meta.variable(0).type, DataType::kInt32);
  EXPECT_EQ(meta.variable(1).type, DataType::kInt64);
  EXPECT_EQ(meta.variable(2).type, DataType::kFloat32);
  EXPECT_EQ(meta.variable(3).type, DataType::kFloat64);
}

TEST(Cdl, Errors) {
  EXPECT_THROW(parseCdl("time = 365;"), std::invalid_argument);  // no section
  EXPECT_THROW(parseCdl("dimensions:\n time = 365"),  // missing ';'
               std::invalid_argument);
  EXPECT_THROW(parseCdl("dimensions:\n = 365;"), std::invalid_argument);
  EXPECT_THROW(parseCdl("dimensions:\n t = 0;"), std::invalid_argument);
  EXPECT_THROW(parseCdl("variables:\n int v(missing);"),
               std::invalid_argument);
  EXPECT_THROW(parseCdl("variables:\n quux v();"), std::invalid_argument);
  EXPECT_THROW(parseCdl("variables:\n intv(n);"), std::invalid_argument);
}

/// Parses `text`: a success or a std::invalid_argument is fine; any
/// other exception escapes and fails the test.
void parseCdlOrInvalid(const std::string& text) {
  try {
    parseCdl(text);
  } catch (const std::invalid_argument&) {
  }
}

TEST(CdlFuzz, EveryTruncationParsesOrIsInvalid) {
  // A prefix can be valid CDL (a dimensions section cut after a ';'),
  // so each one must either parse or throw std::invalid_argument.
  Metadata meta = paperMetadata();
  meta.addVariable("wind", DataType::kFloat64, {"time", "lat"});
  const std::string text = meta.toText();
  ASSERT_EQ(parseCdl(text), meta);
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    SCOPED_TRACE("prefix " + std::to_string(cut));
    parseCdlOrInvalid(text.substr(0, cut));
  }
}

TEST(CdlFuzz, SeededMutationsOnlyThrowInvalidArgument) {
  Metadata meta = paperMetadata();
  meta.addVariable("wind", DataType::kFloat64, {"time", "lat"});
  const std::string valid = meta.toText();
  const std::vector<std::string> tokens{
      "99999999999999999999", "-9223372036854775808", "9223372036854775807",
      "-1", "0", "1e9", "abc", ";", "=", "(", ")", ",", "\n", "\n;\n",
      "dimensions:\n", "variables:\n", "int ", "double x();",
      "(time,time,time,time,time,time,time,time,time)", "time = 5;"};
  std::mt19937_64 rng(0xcd1u);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = valid;
    const std::size_t edits = 1 + rng() % 4;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = rng() % (text.size() + 1);
      switch (rng() % 3) {
        case 0:
          if (at < text.size()) {
            text[at] = static_cast<char>(rng() % 128);
          }
          break;
        case 1:
          text.erase(at, rng() % 8);
          break;
        default:
          text.insert(at, tokens[rng() % tokens.size()]);
          break;
      }
    }
    SCOPED_TRACE(text);
    parseCdlOrInvalid(text);
  }
}

TEST(CdlFuzz, OutOfRangeLengthsAreInvalidArguments) {
  for (const char* text : {"dimensions:\n t = 99999999999999999999;\n",
                           "dimensions:\n t = 12abc;\n",
                           "dimensions:\n t = -9223372036854775808;\n"}) {
    EXPECT_THROW(parseCdl(text), std::invalid_argument) << text;
  }
}

TEST(Cdl, ScalarVariableWithNoDims) {
  Metadata meta = parseCdl("variables:\n double v();\n");
  EXPECT_TRUE(meta.variable(0).dimIndices.empty());
}

// ---- run coalescing and the streaming record reader ----

/// Counts Storage calls on top of MemoryStorage.
class CountingStorage final : public Storage {
 public:
  void readAt(std::uint64_t offset, std::span<std::byte> buf) const override {
    ++reads;
    inner_.readAt(offset, buf);
  }
  void writeAt(std::uint64_t offset, std::span<const std::byte> buf) override {
    ++writes;
    inner_.writeAt(offset, buf);
  }
  std::uint64_t size() const override { return inner_.size(); }
  void resize(std::uint64_t newSize) override { inner_.resize(newSize); }

  mutable std::uint64_t reads = 0;
  std::uint64_t writes = 0;

 private:
  MemoryStorage inner_;
};

/// Values exactly representable in every DataType (small integers).
std::vector<double> integralValues(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = static_cast<double>(static_cast<std::int64_t>(rng() % 20001) - 10000);
  }
  return values;
}

TEST(DatasetRuns, FileAdjacentRowsCoalesceIntoOneStorageCall) {
  auto storage = std::make_shared<CountingStorage>();
  Metadata meta;
  meta.addDimension("t", 4);
  meta.addDimension("y", 36);
  meta.addDimension("x", 72);
  meta.addVariable("v", DataType::kFloat64, {"t", "y", "x"});
  Dataset ds = Dataset::create(storage, meta);
  const nd::Region whole = nd::Region::wholeSpace(nd::Coord{4, 36, 72});
  const auto values =
      integralValues(static_cast<std::size_t>(whole.volume()), 3);
  storage->writes = 0;
  ds.writeRegion(0, whole, values);
  EXPECT_EQ(storage->writes, 1u) << "the whole variable is one run";

  // A slab spanning whole trailing dimensions: 36 rows, one run.
  const nd::Region slab(nd::Coord{1, 0, 0}, nd::Coord{2, 36, 72});
  ASSERT_EQ(ds.regionRuns(0, slab).size(), 1u);
  storage->reads = 0;
  const std::vector<double> back = ds.readRegion(0, slab);
  EXPECT_EQ(storage->reads, 1u);
  EXPECT_TRUE(std::equal(back.begin(), back.end(),
                         values.begin() + 36 * 72, values.begin() + 3 * 36 * 72));

  // A strided sub-box: rows are not adjacent, one run per row.
  const nd::Region box(nd::Coord{1, 2, 3}, nd::Coord{2, 5, 7});
  const auto runs = ds.regionRuns(0, box);
  ASSERT_EQ(runs.size(), 10u);
  for (const Dataset::Run& r : runs) EXPECT_EQ(r.elements, 7u);
  // Full-width rows coalesce within each t-plane but not across the
  // plane boundary's gap.
  const nd::Region band(nd::Coord{0, 30, 0}, nd::Coord{2, 6, 72});
  ASSERT_EQ(ds.regionRuns(0, band).size(), 2u);

  // The streaming reader reads a slab batch with one call, straight
  // from storage.
  auto shared = std::make_shared<Dataset>(Dataset::open(storage));
  sh::DatasetRecordReader reader(shared, 0, slab);
  std::vector<nd::Coord> keys(512);
  std::vector<double> batch(512);
  storage->reads = 0;
  std::uint64_t batches = 0;
  while (reader.nextBatch(keys, batch) > 0) ++batches;
  EXPECT_EQ(batches, (2u * 36 * 72 + 511) / 512);
  EXPECT_EQ(storage->reads, batches);
}

/// Drains a reader through nextBatch at a small, awkward batch size and
/// checks every batch's keys[0] against a cursor over the region.
std::vector<double> drainBatched(mr::RecordReader& reader,
                                 const nd::Region& region,
                                 std::size_t batch) {
  std::vector<nd::Coord> keys(batch);
  std::vector<double> buf(batch);
  std::vector<double> out;
  nd::RegionCursor cursor(region);
  while (true) {
    const std::size_t n = reader.nextBatch(keys, buf);
    if (n == 0) break;
    EXPECT_TRUE(cursor.valid());
    EXPECT_EQ(keys[0], cursor.coord());
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
    for (std::size_t i = 0; i < n; ++i) cursor.next();
  }
  EXPECT_FALSE(cursor.valid());
  return out;
}

TEST(StreamingReader, MatchesReadRegionForEveryTypeAndRegionShape) {
  const nd::Coord shape{6, 9, 8};
  const nd::Coord line{50};
  for (DataType type : {DataType::kInt32, DataType::kInt64, DataType::kFloat32,
                        DataType::kFloat64}) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)));
    struct Array {
      std::shared_ptr<Dataset> ds;
      nd::Coord shape;
      std::vector<double> values;  ///< whole variable, row-major
    };
    auto makeArray = [type](const nd::Coord& s, std::uint64_t seed) {
      Array a{std::make_shared<Dataset>(
                  Dataset::create(std::make_shared<MemoryStorage>(),
                                  sh::arrayMetadata("v", type, s))),
              s, integralValues(static_cast<std::size_t>(s.volume()), seed)};
      a.ds->writeRegion(0, nd::Region::wholeSpace(s), a.values);
      return a;
    };
    const Array cube = makeArray(shape, static_cast<std::uint64_t>(type));
    const Array vec = makeArray(line, 7 + static_cast<std::uint64_t>(type));
    std::vector<std::pair<const Array*, nd::Region>> cases;
    cases.emplace_back(&cube, nd::Region(nd::Coord{2, 0, 0},
                                         nd::Coord{3, 9, 8}));  // slab
    cases.emplace_back(&cube, nd::Region(nd::Coord{1, 2, 3},
                                         nd::Coord{4, 5, 4}));  // sub-box
    // A byte-range split: several boxes read as one record stream.
    for (const mr::InputSplit& split : sh::generateByteRangeSplits(shape, 5)) {
      for (const nd::Region& r : split.regions) cases.emplace_back(&cube, r);
    }
    cases.emplace_back(&vec, nd::Region(nd::Coord{7}, nd::Coord{33}));  // rank 1
    for (const auto& [array, region] : cases) {
      SCOPED_TRACE(region.toString());
      const std::shared_ptr<Dataset>& ds = array->ds;
      // Independent oracle: the written values picked by coordinate.
      std::vector<double> expected;
      for (nd::RegionCursor c(region); c.valid(); c.next()) {
        expected.push_back(array->values[static_cast<std::size_t>(
            nd::linearize(c.coord(), array->shape))]);
      }
      EXPECT_EQ(ds->readRegion(0, region), expected);
      for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                std::size_t{512}}) {
        sh::DatasetRecordReader reader(ds, 0, region);
        EXPECT_EQ(drainBatched(reader, region, batch), expected);
      }
      // Per-record next() walks the same stream with every key.
      sh::DatasetRecordReader reader(ds, 0, region);
      nd::RegionCursor cursor(region);
      nd::Coord key;
      double value = 0.0;
      std::size_t i = 0;
      while (reader.next(key, value)) {
        ASSERT_LT(i, expected.size());
        EXPECT_EQ(key, cursor.coord());
        EXPECT_EQ(value, expected[i++]);
        cursor.next();
      }
      EXPECT_EQ(i, expected.size());
    }
  }
}

TEST(StreamingReader, OutOfBoundsRegionRejectedAtConstruction) {
  const nd::Coord shape{4, 5};
  auto ds = std::make_shared<Dataset>(
      Dataset::create(std::make_shared<MemoryStorage>(),
                      sh::arrayMetadata("v", DataType::kFloat64, shape)));
  EXPECT_THROW(sh::DatasetRecordReader(ds, 0,
                                       nd::Region(nd::Coord{2, 0},
                                                  nd::Coord{3, 5})),
               std::out_of_range);
  EXPECT_THROW(sh::DatasetRecordReader(ds, 0,
                                       nd::Region(nd::Coord{0, 4},
                                                  nd::Coord{1, 2})),
               std::out_of_range);
}

TEST(StreamingReader, FileBackedQuery1MatchesMemoryBackedAtAnyThreadCount) {
  TempDir dir;
  const nd::Coord shape{8, 12, 24, 10};
  const sh::ValueFn fn = sh::windspeedField(4);
  const std::string path = dir.file("windspeed.sndf");
  {
    auto storage =
        std::make_shared<FileStorage>(path, FileStorage::Mode::kCreate);
    Dataset ds = Dataset::create(
        storage, sh::arrayMetadata("windspeed", DataType::kFloat64, shape));
    sh::fillDataset(ds, 0, fn);
    storage->flush();
  }
  auto onDisk = std::make_shared<Dataset>(Dataset::open(
      std::make_shared<FileStorage>(path, FileStorage::Mode::kOpenReadOnly)));
  auto inMemory =
      sh::makeMemoryDataset("windspeed", DataType::kFloat64, shape, fn);

  const sh::StructuralQuery q =
      sh::parseQuery("median(windspeed, eshape={2,6,12,5})");
  core::QueryPlanner planner(q, shape);
  core::PlanOptions opts;
  opts.system = core::SystemMode::kSidr;
  opts.numReducers = 6;
  opts.desiredSplitCount = 12;
  opts.numThreads = 1;
  const std::vector<mr::KeyValue> reference =
      mr::Engine(std::move(planner.plan(inMemory, 0, opts).spec))
          .run()
          .collectAll();
  ASSERT_FALSE(reference.empty());
  for (std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    opts.numThreads = threads;
    opts.mapSlots = threads;
    const std::vector<mr::KeyValue> got =
        mr::Engine(std::move(planner.plan(onDisk, 0, opts).spec))
            .run()
            .collectAll();
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, reference[i].key) << "at " << i;
      EXPECT_EQ(got[i].value, reference[i].value) << "at " << i;
      EXPECT_EQ(got[i].represents, reference[i].represents) << "at " << i;
    }
  }
}

}  // namespace
}  // namespace sidr::sci
