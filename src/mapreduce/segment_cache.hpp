// SegmentCache: a service-owned cache of committed, immutable map-output
// segments keyed by a canonical MapFingerprint (DESIGN.md §16).
//
// SIDR's premise is that structural metadata makes intermediate data
// predictable — predictable enough to route, and therefore predictable
// enough to REUSE: two byte-identical structural queries over the same
// dataset produce byte-identical map output, so the second needs no map
// phase at all. The cache holds one entry per fingerprint: the full
// (map, keyblock) matrix of shared_ptr<const Segment> handles a
// successful job donated at finalize. A later job with the same
// fingerprint claims the matrix and publishes it wholesale — zero map
// tasks, reduces shuffle the warm handles exactly as if its own maps
// had committed them.
//
// Invalidation is trivial by construction: segments are immutable after
// publication and the key is content-addressed (dataset identity is
// part of the fingerprint), so an entry can never go stale — only cold.
//
// Memory: resident entries are charged against the owning service's
// admission ledger (jobs always win — admission pressure sheds the
// cache first). Shedding is LRU by fingerprint; an entry whose segments
// also live in committed spill files (an eager-spill donor's `job<id>/`
// namespace) is DEMOTED to its file paths instead of dropped, and a
// later claim re-loads it through readSegmentFile, the reader a reduce
// fetch uses.
//
// Thread safety: externally synchronized. EngineService accesses the
// cache only under its service mutex; the claim path's file reloads do
// run I/O under that lock, accepted for the same reason JobContext::
// start() runs namespace creation there — admission is rare and a warm
// claim replaces an entire map phase.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapreduce/segment.hpp"
#include "sidr/fingerprint.hpp"

namespace sidr::mr {

/// A successful job's committed map output, staged by JobContext and
/// handed to the cache at finalize. Exactly one of `segments` (resident
/// donor: in-memory or hybrid mode) or `paths` (file-backed donor:
/// eager-spill mode, pointing into the donor's committed `job<id>/`
/// namespace) is populated; both are [numMaps][numReduces].
struct SegmentCacheDonation {
  bool present = false;
  core::Fingerprint128 key{};
  std::uint32_t numMaps = 0;
  std::uint32_t numReduces = 0;
  /// Key space the `paths` entries' keys are decoded into on reload.
  nd::Coord keySpace;
  std::vector<std::vector<std::shared_ptr<const Segment>>> segments;
  std::vector<std::vector<std::string>> paths;
};

/// Monotonic counters (residentBytes is a gauge). Snapshot via stats().
struct SegmentCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytesServed = 0;
  /// Entries dropped entirely (no file backing to demote to).
  std::uint64_t evictions = 0;
  /// Resident entries demoted to their committed spill files.
  std::uint64_t demotions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t residentBytes = 0;
};

class SegmentCache {
 public:
  /// `capBytes`: resident-byte cap enforced after every insert and
  /// promotion; 0 = no own cap (the owning service's admission ledger
  /// still sheds the cache under pressure via shedTo()).
  explicit SegmentCache(std::uint64_t capBytes) : cap_(capBytes) {}

  struct Claimed {
    std::vector<std::vector<std::shared_ptr<const Segment>>> segments;
    std::uint64_t bytesServed = 0;
  };

  /// Looks up `key` and returns handle copies for a job with the given
  /// geometry. A demoted entry is re-loaded from its committed files
  /// (and promoted back to resident); a load failure — e.g. the donor's
  /// namespace was removed out-of-band — drops the entry and counts a
  /// miss, so the claimant just runs cold. A geometry mismatch (same
  /// fingerprint, different matrix shape) would be a canonicalization
  /// bug; it is treated as a miss and the entry is dropped defensively.
  std::optional<Claimed> claim(const core::Fingerprint128& key,
                               std::uint32_t numMaps,
                               std::uint32_t numReduces);

  /// Absorbs a donation. First donor wins on a duplicate key (the
  /// entries are byte-identical by the fingerprint contract); the
  /// duplicate is dropped. Enforces the cap afterwards.
  void insert(SegmentCacheDonation donation);

  /// Sheds LRU-by-fingerprint until residentBytes() <= target: demotes
  /// file-backed entries to their paths, drops memory-only ones.
  void shedTo(std::uint64_t targetResidentBytes);

  std::uint64_t residentBytes() const noexcept {
    return stats_.residentBytes;
  }
  std::size_t entryCount() const noexcept { return entries_.size(); }
  const SegmentCacheStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    std::uint32_t numMaps = 0;
    std::uint32_t numReduces = 0;
    nd::Coord keySpace;
    /// Resident handles; all-null rows when demoted to `paths`.
    std::vector<std::vector<std::shared_ptr<const Segment>>> segments;
    /// Committed spill files backing this entry; empty for a resident-
    /// only (in-memory/hybrid donor) entry.
    std::vector<std::vector<std::string>> paths;
    std::uint64_t resident = 0;  ///< bytes charged while resident
    std::uint64_t lruTick = 0;
  };

  bool loadEntryFiles(Entry& entry);
  void dropResident(Entry& entry);

  std::unordered_map<core::Fingerprint128, Entry, core::Fingerprint128Hash>
      entries_;
  std::uint64_t cap_ = 0;
  std::uint64_t tick_ = 0;
  SegmentCacheStats stats_;
};

}  // namespace sidr::mr
