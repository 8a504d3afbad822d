// The benchmark's own instrumentation: clocks, the span log of the
// traced run, and the wrappers that time calls into the scifile reader
// and the scihadoop reducer from outside the library. Nothing here
// reaches into src/: every measurement brackets a public call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mapreduce/interfaces.hpp"

namespace sidr::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `since`.
inline double secondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// CPU seconds consumed by the whole process so far (all threads).
double processCpuSeconds();

/// Peak resident set size of the process, in MiB.
double peakRssMiB();

/// One benchmark span: a call into a layer, bracketed from outside.
/// Spans of one query share `query`; `parent` is the id of the span that
/// caused this one (0 = root). `busy` is the time actually spent inside
/// the wrapped calls when the span covers many of them (a reader's
/// batches, a reducer's keys); otherwise it equals end - start.
struct BenchSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t query = 0;
  std::string name;
  double start = 0.0;  ///< seconds since the span log's epoch
  double end = 0.0;
  double busy = 0.0;
};

/// In-memory span store of the traced run, written out when the run
/// ends. Thread-safe: wrapped readers and reducers record from engine
/// worker threads.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double now() const { return secondsSince(epoch_); }
  double toSeconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }

  void record(BenchSpan span);
  std::vector<BenchSpan> spans() const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> nextId_{0};
  mutable std::mutex mtx_;
  std::vector<BenchSpan> spans_;  ///< guarded by mtx_
};

/// RAII span around one call: records [construction, destruction) into
/// `log` (a no-op when `log` is null, i.e. in untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t query,
             std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  BenchSpan span_;
};

/// Per-query totals filled by the wrapped factories. Readers and
/// reducers run on engine worker threads, so totals are atomics (in
/// nanoseconds) folded in once per reader / reducer instance.
struct CallTotals {
  std::atomic<std::uint64_t> readNanos{0};
  std::atomic<std::uint64_t> readBytes{0};
  std::atomic<std::uint64_t> reduceNanos{0};

  double readSeconds() const { return static_cast<double>(readNanos) * 1e-9; }
  double reduceSeconds() const {
    return static_cast<double>(reduceNanos) * 1e-9;
  }
};

/// Wraps a reader factory so that the RecordReader constructor (which
/// reads the split's region out of the sci::Dataset) and every
/// next/nextBatch call are timed into `totals`, and each reader leaves
/// one "scifile.read" span under `parent`. `elementBytes` is the
/// on-disk size of one element (read_bytes = region volume x it).
mr::RecordReaderFactory timeReaders(mr::RecordReaderFactory inner,
                                    std::shared_ptr<CallTotals> totals,
                                    std::size_t elementBytes, SpanLog* log,
                                    std::uint64_t query, std::uint64_t parent);

/// Wraps a reducer factory so that every reduce() call is timed into
/// `totals`; each reducer instance leaves one "scihadoop.reduce" span.
mr::ReducerFactory timeReducers(mr::ReducerFactory inner,
                                std::shared_ptr<CallTotals> totals,
                                SpanLog* log, std::uint64_t query,
                                std::uint64_t parent);

}  // namespace sidr::perfbench
