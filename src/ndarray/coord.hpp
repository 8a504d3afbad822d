// n-dimensional coordinate / shape type used throughout SIDR.
//
// Scientific file formats address data by logical coordinates (NetCDF,
// HDF5, ...); SciHadoop and SIDR keep every stage of the dataflow in
// coordinate space, so this small fixed-capacity vector is the key type
// of the whole system (map input keys, intermediate keys, shapes,
// extraction shapes, strides).
//
// Design notes:
//  * rank is bounded by kMaxRank (8) — real scientific datasets rarely
//    exceed 5-6 dimensions, and the inline array keeps keys cheap to
//    copy/hash, which matters for the partition micro-benchmark
//    (6.48 M key routings, paper section 4.5).
//  * Coord doubles as a shape (extent-per-dimension) and as a point.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

namespace sidr::nd {

/// Signed index type for logical coordinates. Signed so that arithmetic
/// on differences of coordinates is well defined.
using Index = std::int64_t;

/// Maximum supported rank (number of dimensions).
inline constexpr std::size_t kMaxRank = 8;

/// An n-dimensional coordinate or shape with inline storage.
class Coord {
 public:
  /// Rank-0 coordinate (useful as "empty" sentinel).
  constexpr Coord() noexcept : v_{}, rank_(0) {}

  /// Construct from an explicit list of per-dimension values.
  /// Throws std::length_error if more than kMaxRank values are given.
  Coord(std::initializer_list<Index> values) : v_{}, rank_(values.size()) {
    if (values.size() > kMaxRank) {
      throw std::length_error("Coord: rank exceeds kMaxRank");
    }
    std::size_t i = 0;
    for (Index x : values) v_[i++] = x;
  }

  /// Construct from a span of values.
  explicit Coord(std::span<const Index> values) : v_{}, rank_(values.size()) {
    if (values.size() > kMaxRank) {
      throw std::length_error("Coord: rank exceeds kMaxRank");
    }
    for (std::size_t i = 0; i < values.size(); ++i) v_[i] = values[i];
  }

  /// A coordinate of the given rank with every component set to `fill`.
  static Coord filled(std::size_t rank, Index fill);

  /// A coordinate of the given rank with every component zero (an origin).
  static Coord zeros(std::size_t rank) { return filled(rank, 0); }

  /// A shape of the given rank with every component one.
  static Coord ones(std::size_t rank) { return filled(rank, 1); }

  std::size_t rank() const noexcept { return rank_; }
  bool empty() const noexcept { return rank_ == 0; }

  Index& operator[](std::size_t d) { return v_[d]; }
  Index operator[](std::size_t d) const { return v_[d]; }

  /// Bounds-checked element access.
  Index at(std::size_t d) const {
    if (d >= rank_) throw std::out_of_range("Coord::at");
    return v_[d];
  }

  std::span<const Index> values() const noexcept { return {v_.data(), rank_}; }

  const Index* begin() const noexcept { return v_.data(); }
  const Index* end() const noexcept { return v_.data() + rank_; }
  Index* begin() noexcept { return v_.data(); }
  Index* end() noexcept { return v_.data() + rank_; }

  /// Product of all components. For a shape this is the element count
  /// (volume). Rank-0 has volume 1 by convention (empty product).
  Index volume() const noexcept;

  /// True when every component is strictly positive (a valid shape).
  bool isValidShape() const noexcept;

  /// Component-wise addition; ranks must match.
  Coord plus(const Coord& o) const;
  /// Component-wise subtraction; ranks must match.
  Coord minus(const Coord& o) const;
  /// Component-wise floor division by a positive divisor shape.
  Coord dividedBy(const Coord& divisor) const;
  /// Component-wise multiplication.
  Coord times(const Coord& o) const;
  /// Component-wise minimum.
  Coord min(const Coord& o) const;
  /// Component-wise maximum.
  Coord max(const Coord& o) const;

  /// Lexicographic comparison (row-major order when shapes are equal).
  friend auto operator<=>(const Coord& a, const Coord& b) = default;

  /// Human-readable "{a, b, c}" rendering (matches the paper's notation).
  std::string toString() const;

  /// Parses the toString() format, e.g. "{7200, 360, 720, 50}".
  /// Throws std::invalid_argument on malformed input.
  static Coord parse(const std::string& text);

  /// 64-bit hash of the coordinate contents; mixes all components.
  std::uint64_t hash() const noexcept;

 private:
  std::array<Index, kMaxRank> v_;
  std::size_t rank_;
};

/// Row-major linearization of `c` within an enclosing `shape`; this is
/// the canonical total order on keys used by sorting, merging and by
/// Hadoop's modulo partitioner over coordinate keys.
/// Precondition: 0 <= c[d] < shape[d] for all d, ranks equal.
Index linearize(const Coord& c, const Coord& shape);

/// Bounds-checked linearize(): the row-major index of `c` within
/// `shape`, or nullopt when the ranks differ or a coordinate lies
/// outside [0, shape[d]). Inline because the map side runs it once per
/// emitted record; callers pick the exception type for a miss.
inline std::optional<std::uint64_t> linearizeWithin(
    const Coord& c, const Coord& shape) noexcept {
  if (c.rank() != shape.rank()) return std::nullopt;
  std::uint64_t linear = 0;
  for (std::size_t d = 0; d < c.rank(); ++d) {
    if (c[d] < 0 || c[d] >= shape[d]) return std::nullopt;
    linear = linear * static_cast<std::uint64_t>(shape[d]) +
             static_cast<std::uint64_t>(c[d]);
  }
  return linear;
}

/// Inverse of linearize().
Coord delinearize(Index linear, const Coord& shape);

}  // namespace sidr::nd

template <>
struct std::hash<sidr::nd::Coord> {
  std::size_t operator()(const sidr::nd::Coord& c) const noexcept {
    return static_cast<std::size_t>(c.hash());
  }
};
