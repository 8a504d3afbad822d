// SNDF dataset container: coordinate-addressed array I/O over a Storage.
//
// Layout:
//   [magic "SNDF1\0\0\0"] [u64 metadataLength] [metadata bytes]
//   [variable 0 dense payload, row-major] [variable 1 payload] ...
//
// All element access happens through logical coordinates (Regions), as
// with NetCDF/HDF5 access libraries; the dataset translates regions into
// the minimal set of file-contiguous byte runs (innermost rows, with
// file-adjacent rows coalesced), so dense region I/O is one storage call
// per run and scattered writes pay seeks — the property the Table 2
// experiment measures.
#pragma once

#include <memory>
#include <vector>

#include "ndarray/region.hpp"
#include "scifile/metadata.hpp"
#include "scifile/storage.hpp"

namespace sidr::sci {

class Dataset {
 public:
  /// Creates a new container with the given metadata. The storage is
  /// sized to hold all variables; contents are initially zero (memory)
  /// or sparse (file).
  static Dataset create(std::shared_ptr<Storage> storage, Metadata metadata);

  /// Opens an existing container and parses its header.
  static Dataset open(std::shared_ptr<Storage> storage);

  const Metadata& metadata() const noexcept { return meta_; }

  /// Writes `values` (row-major over `region`) into the variable.
  /// Values are converted to the variable's on-disk type.
  /// Throws if region is out of the variable's bounds or sizes mismatch.
  void writeRegion(std::size_t varIdx, const nd::Region& region,
                   std::span<const double> values);

  /// Reads the region's values (row-major) as doubles.
  std::vector<double> readRegion(std::size_t varIdx,
                                 const nd::Region& region) const;

  /// One file-contiguous run of a region: `elements` consecutive
  /// elements stored from byte `fileOffset` on.
  struct Run {
    std::uint64_t fileOffset = 0;
    std::uint64_t elements = 0;
  };

  /// The region's file-contiguous runs, in row-major order: one per
  /// innermost row, with rows that are adjacent in the file coalesced
  /// (a slab spanning whole trailing dimensions is a single run). The
  /// one place region coordinates become byte offsets: readRegion,
  /// writeRegion and streaming readers all walk these runs. Throws
  /// std::out_of_range when the region leaves the variable's bounds and
  /// std::invalid_argument for a rank-0 region.
  std::vector<Run> regionRuns(std::size_t varIdx,
                              const nd::Region& region) const;

  /// Reads out.size() elements of `run` (one of regionRuns(varIdx, ...)),
  /// starting `skip` elements into it, and decodes them to doubles with
  /// one Storage::readAt: float64 lands in `out` directly, other types
  /// pass through the caller's `staging` buffer.
  void readRun(std::size_t varIdx, const Run& run, std::uint64_t skip,
               std::span<double> out, std::vector<std::byte>& staging) const;

  /// Fills an entire variable with a constant (used to lay down sentinel
  /// values for the sparse-output experiment).
  void fill(std::size_t varIdx, double value);

  /// Byte offset of a variable's payload within the container.
  std::uint64_t variableOffset(std::size_t varIdx) const;

  /// Total container size in bytes (header + all payloads).
  std::uint64_t totalByteSize() const;

  Storage& storage() noexcept { return *storage_; }

 private:
  Dataset(std::shared_ptr<Storage> storage, Metadata meta);

  std::shared_ptr<Storage> storage_;
  Metadata meta_;
  std::uint64_t dataStart_ = 0;
  std::vector<std::uint64_t> varOffsets_;  ///< relative to dataStart_
};

}  // namespace sidr::sci
