// DenseCells: per-split dense accumulation array for the structural
// mappers (DESIGN.md section 19).
//
// A split's input regions touch a box of the instance grid (the bounding
// box of ExtractionMap::instanceRangeOf over the regions), so per-cell
// map state lives in a flat array indexed by the cell's row-major offset
// in that box instead of a tree keyed by intermediate Coord. Row runs
// are cut into extraction-cell chunks: the instance coordinate is
// computed once per chunk, not once per value. drain() walks the box in
// row-major order, which is also ascending intermediate-key order in
// both key modes, so emission needs no sort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "ndarray/region.hpp"
#include "scihadoop/extraction.hpp"

namespace sidr::sh {

template <class Cell>
class DenseCells {
 public:
  struct Slot {
    Cell cell{};
    /// Input records folded into this cell; 0 = never touched.
    std::uint64_t consumed = 0;
  };

  explicit DenseCells(std::shared_ptr<const ExtractionMap> extraction)
      : extraction_(std::move(extraction)) {}

  /// Fixes the box to the split covering `regions` and drops any state.
  /// Without this call the first run covers the whole input space.
  void cover(std::span<const nd::Region> regions) {
    regions_.assign(regions.begin(), regions.end());
    box_.reset();
    for (const nd::Region& r : regions_) {
      auto range = extraction_->instanceRangeOf(r);
      if (!range) continue;
      if (!box_) {
        box_ = range;
        continue;
      }
      const nd::Coord lo = box_->corner().min(range->corner());
      const nd::Coord hi = box_->end().max(range->end());
      box_ = nd::Region(lo, hi.minus(lo));
    }
    covered_ = true;
    slots_ = {};
  }

  /// Folds the row run (values[i] sits at `start` with the last
  /// coordinate advanced by i) into the box. For every extraction-cell
  /// chunk calls f(slot, index, chunk) BEFORE bumping slot.consumed, so
  /// `slot.consumed == 0` marks a cell's first touch. Keys in stride
  /// gaps, before the domain or past the (truncated) grid are dropped,
  /// exactly as ExtractionMap::keyFor drops them.
  template <class F>
  void addRun(const nd::Coord& start, std::span<const double> values, F&& f) {
    const ExtractionMap& ex = *extraction_;
    const std::size_t rank = start.rank();
    if (rank != ex.inputShape().rank()) {
      throw std::invalid_argument("DenseCells: key rank mismatch");
    }
    if (!covered_) {
      const nd::Region whole = nd::Region::wholeSpace(ex.inputShape());
      cover({&whole, 1});
    }
    if (slots_.empty() && box_) {
      slots_.resize(static_cast<std::size_t>(box_->volume()));
    }
    if (rank == 0) {  // a single cell, no coordinates to translate
      if (!box_) outsideBox();
      if (!values.empty()) fold(0, values, f);
      return;
    }
    const nd::Coord& corner = ex.domain().corner();
    const nd::Coord& stride = ex.stride();
    const nd::Coord& eshape = ex.extractionShape();
    const nd::Coord& grid = ex.instanceGridShape();
    const std::size_t last = rank - 1;
    // Instance coordinate of the run's prefix (every dimension but the
    // last), shared by all of its chunks.
    nd::Coord g = start;
    for (std::size_t d = 0; d < last; ++d) {
      const nd::Index rel = start[d] - corner[d];
      if (rel < 0) return;
      g[d] = rel / stride[d];
      if (rel % stride[d] >= eshape[d] || g[d] >= grid[d]) return;
    }
    // Row-major box offset of the prefix's row, computed at the first
    // chunk: a run that lies wholly in gaps never consults the box.
    std::optional<std::size_t> rowBase;
    const nd::Index s = stride[last];
    const nd::Index e = eshape[last];
    nd::Index rel = start[last] - corner[last];
    std::size_t i = 0;
    if (rel < 0) {
      i = static_cast<std::size_t>(-rel);
      rel = 0;
    }
    while (i < values.size()) {
      g[last] = rel / s;
      if (g[last] >= grid[last]) return;
      const nd::Index within = rel % s;
      if (within >= e) {  // stride gap: skip to the next cell's start
        i += static_cast<std::size_t>(s - within);
        rel += s - within;
        continue;
      }
      if (!rowBase) rowBase = rowOffset(g);
      const std::size_t len =
          std::min(values.size() - i, static_cast<std::size_t>(e - within));
      fold(*rowBase + boxOffset(last, g[last]), values.subspan(i, len), f);
      i += len;
      rel += static_cast<nd::Index>(len);
    }
  }

  /// Input records of cell `index` that lie inside the covered regions:
  /// the volume of its cell intersected with the split.
  std::size_t inSplitCount(std::size_t index) const {
    const nd::Coord g = box_->coordAtOffset(static_cast<nd::Index>(index));
    const nd::Region cell = extraction_->cellOf(g);
    nd::Index n = 0;
    for (const nd::Region& r : regions_) {
      if (auto x = cell.intersect(r)) n += x->volume();
    }
    return static_cast<std::size_t>(n);
  }

  /// Calls f(key, slot) for every touched cell in row-major box order
  /// (= ascending intermediate key), then frees the array; the box stays
  /// covered, so later runs start from empty cells.
  template <class F>
  void drain(F&& f) {
    if (!slots_.empty()) {
      std::size_t index = 0;
      for (nd::RegionCursor cur(*box_); cur.valid(); cur.next(), ++index) {
        Slot& slot = slots_[index];
        if (slot.consumed > 0) {
          f(extraction_->keyForInstance(cur.coord()), slot);
        }
      }
    }
    slots_ = {};
  }

 private:
  template <class F>
  void fold(std::size_t index, std::span<const double> chunk, F& f) {
    Slot& slot = slots_[index];
    f(slot, index, chunk);
    slot.consumed += chunk.size();
  }

  /// Row-major box offset of the first cell in instance `g`'s box row
  /// (g's last coordinate is ignored).
  std::size_t rowOffset(const nd::Coord& g) const {
    if (!box_) outsideBox();
    const std::size_t last = g.rank() - 1;
    std::size_t off = 0;
    for (std::size_t d = 0; d < last; ++d) {
      const std::size_t within = boxOffset(d, g[d]);
      off = off * static_cast<std::size_t>(box_->shape()[d]) + within;
    }
    return off * static_cast<std::size_t>(box_->shape()[last]);
  }

  /// Offset of instance coordinate `g` along dimension `d` of the box;
  /// a key outside the box means the reader strayed from its split.
  std::size_t boxOffset(std::size_t d, nd::Index g) const {
    if (!box_) outsideBox();
    const nd::Index off = g - box_->corner()[d];
    if (off < 0 || off >= box_->shape()[d]) outsideBox();
    return static_cast<std::size_t>(off);
  }

  [[noreturn]] static void outsideBox() {
    throw std::logic_error(
        "DenseCells: record outside the split's instance box");
  }

  std::shared_ptr<const ExtractionMap> extraction_;
  std::vector<nd::Region> regions_;
  /// Instance-grid box of the covered regions; empty when they touch no
  /// instance (every key lands in a gap or past the truncated edge).
  std::optional<nd::Region> box_;
  bool covered_ = false;
  std::vector<Slot> slots_;
};

}  // namespace sidr::sh
