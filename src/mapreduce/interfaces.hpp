// User-facing interfaces of the MapReduce runtime: RecordReader, Mapper,
// Combiner, Reducer, Partitioner and their contexts. These mirror the
// Hadoop 1.0 APIs the paper extends, restricted to coordinate keys.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "mapreduce/kv.hpp"
#include "ndarray/region.hpp"

namespace sidr::mr {

/// Produces (key, value) pairs from one input split. Implementations are
/// file-format specific (the paper's NetCDF reader; our SNDF reader).
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Advances to the next record; returns false at end of split.
  virtual bool next(nd::Coord& key, double& value) = 0;

  /// Batch read: fills `values[0..n)` with the region's next n elements
  /// in row-major order, n <= min(keys.size(), values.size()), and
  /// returns n; 0 means end of split. Only `keys[0]` is written — the
  /// coordinate of `values[0]` — and `keys[1..n)` are unspecified: the
  /// caller owns the region and walks its rows with a RegionCursor, so
  /// a per-value key would only be written to be read back. A short
  /// (non-zero) return does NOT signal the end, so callers loop until
  /// 0. Region-backed readers override this with a row-run copy loop;
  /// this default delegates to next(), which writes every key and so
  /// satisfies the contract too.
  virtual std::size_t nextBatch(std::span<nd::Coord> keys,
                                std::span<double> values) {
    const std::size_t cap = std::min(keys.size(), values.size());
    std::size_t n = 0;
    while (n < cap && next(keys[n], values[n])) ++n;
    return n;
  }
};

/// Collects a mapper's intermediate output.
class MapContext {
 public:
  virtual ~MapContext() = default;

  /// Emits an intermediate record. `represents` is the number of map
  /// input pairs this record stands for (count annotation; >1 only when
  /// the mapper pre-aggregates).
  virtual void emit(const nd::Coord& key, Value value,
                    std::uint64_t represents = 1) = 0;
};

class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Called once before the split's first record with the regions the
  /// split covers, so a mapper can size per-split state up front. A
  /// mapper may be fed without this call (unit tests, hand-written loops);
  /// it must then assume nothing about which keys will arrive.
  virtual void beginSplit(std::span<const nd::Region> /*regions*/) {}

  virtual void map(const nd::Coord& key, double value, MapContext& ctx) = 0;

  /// Row-run entry point: `values[i]` is the value at `start` with the
  /// last coordinate advanced by i; a run never crosses a row of the
  /// split's region (rank-0 keys come as runs of one).
  /// Mappers that can work per run — translate the key once, not per
  /// record — override this; the default feeds map() record by record.
  virtual void mapRun(const nd::Coord& start, std::span<const double> values,
                      MapContext& ctx) {
    nd::Coord key = start;
    for (double v : values) {
      map(key, v, ctx);
      if (key.rank() > 0) ++key[key.rank() - 1];
    }
  }

  /// Called once after the split is exhausted; mappers that buffer
  /// (combining mappers) flush here.
  virtual void finish(MapContext& /*ctx*/) {}
};

/// Collects a reducer's final output.
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;

  virtual void emit(const nd::Coord& key, Value value) = 0;
};

class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Called once per distinct intermediate key with every value for that
  /// key (MapReduce guarantee 2).
  virtual void reduce(const nd::Coord& key,
                      std::span<const Value* const> values,
                      ReduceContext& ctx) = 0;
};

/// Optional map-side combiner: merges two values for the same key.
class Combiner {
 public:
  virtual ~Combiner() = default;

  virtual Value combine(const Value& a, const Value& b) const = 0;
};

/// Assigns intermediate keys to keyblocks (one keyblock per Reduce
/// task). Implementations: HashPartitioner / ModuloPartitioner (Hadoop
/// defaults) and sidr::PartitionPlus.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual std::uint32_t partition(const nd::Coord& key,
                                  std::uint32_t numReducers) const = 0;

  /// Linearized-key fast path (see DESIGN.md section 11). `linearKey` is
  /// linearize(key, keySpace) for the job's declared JobSpec::keySpace;
  /// implementations that route by row-major linear index return the
  /// keyblock AND set `runEnd` to an exclusive linear-key bound such
  /// that EVERY valid intermediate key with linear index in
  /// [linearKey, runEnd) lands in the same keyblock. Callers cache the
  /// run and skip the virtual call for keys inside it, so a
  /// structure-aware partitioner (partition+) is consulted once per
  /// granule row rather than once per record. Implementations must
  /// express `runEnd` in the SAME key space the engine linearizes with —
  /// for the planner-built jobs that is
  /// ExtractionMap::intermediateSpaceShape(). This default is always
  /// correct: a run of exactly one key, routed by partition().
  virtual std::uint32_t partitionRun(const nd::Coord& key,
                                     std::uint64_t linearKey,
                                     std::uint32_t numReducers,
                                     std::uint64_t& runEnd) const {
    runEnd = linearKey + 1;
    return partition(key, numReducers);
  }
};

/// Factory signatures used by JobSpec.
using CombinerFactory = std::function<std::unique_ptr<Combiner>()>;
using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;
using RecordReaderFactory =
    std::function<std::unique_ptr<RecordReader>(const nd::Region&)>;

}  // namespace sidr::mr
