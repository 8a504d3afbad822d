#include "probes.hpp"

#include <sys/resource.h>

#include <ctime>
#include <utility>

namespace sidr::perfbench {

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SpanLog::record(BenchSpan span) {
  std::scoped_lock lock(mtx_);
  spans_.push_back(std::move(span));
}

std::vector<BenchSpan> SpanLog::spans() const {
  std::scoped_lock lock(mtx_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint64_t query,
                       std::uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->newId();
  span_.parent = parent;
  span_.query = query;
  span_.name = std::move(name);
  span_.start = log_->now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end = log_->now();
  span_.busy = span_.end - span_.start;
  log_->record(std::move(span_));
}

namespace {

std::uint64_t nanosSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Shared bookkeeping of the two wrappers: accumulates busy time and
/// records one span covering the instance's lifetime on destruction.
class InstanceProbe {
 public:
  InstanceProbe(SpanLog* log, const char* name, std::uint64_t query,
                std::uint64_t parent, Clock::time_point created)
      : log_(log), name_(name), query_(query), parent_(parent),
        created_(created) {}

  void addBusy(std::uint64_t nanos) { busyNanos_ += nanos; }
  std::uint64_t busyNanos() const { return busyNanos_; }

  void recordSpan() const {
    if (log_ == nullptr) return;
    BenchSpan span;
    span.id = log_->newId();
    span.parent = parent_;
    span.query = query_;
    span.name = name_;
    span.start = log_->toSeconds(created_);
    span.end = log_->now();
    span.busy = static_cast<double>(busyNanos_) * 1e-9;
    log_->record(std::move(span));
  }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t query_;
  std::uint64_t parent_;
  Clock::time_point created_;
  std::uint64_t busyNanos_ = 0;
};

class TimedReader final : public mr::RecordReader {
 public:
  TimedReader(std::unique_ptr<mr::RecordReader> inner,
              std::shared_ptr<CallTotals> totals, InstanceProbe probe)
      : inner_(std::move(inner)), totals_(std::move(totals)),
        probe_(std::move(probe)) {}

  ~TimedReader() override {
    totals_->readNanos += probe_.busyNanos();
    probe_.recordSpan();
  }

  bool next(nd::Coord& key, double& value) override {
    const auto t0 = Clock::now();
    const bool more = inner_->next(key, value);
    probe_.addBusy(nanosSince(t0));
    return more;
  }

  std::size_t nextBatch(std::span<nd::Coord> keys,
                        std::span<double> values) override {
    const auto t0 = Clock::now();
    const std::size_t n = inner_->nextBatch(keys, values);
    probe_.addBusy(nanosSince(t0));
    return n;
  }

 private:
  std::unique_ptr<mr::RecordReader> inner_;
  std::shared_ptr<CallTotals> totals_;
  InstanceProbe probe_;
};

class TimedReducer final : public mr::Reducer {
 public:
  TimedReducer(std::unique_ptr<mr::Reducer> inner,
               std::shared_ptr<CallTotals> totals, InstanceProbe probe)
      : inner_(std::move(inner)), totals_(std::move(totals)),
        probe_(std::move(probe)) {}

  ~TimedReducer() override {
    totals_->reduceNanos += probe_.busyNanos();
    probe_.recordSpan();
  }

  void reduce(const nd::Coord& key, std::span<const mr::Value* const> values,
              mr::ReduceContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->reduce(key, values, ctx);
    probe_.addBusy(nanosSince(t0));
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  std::shared_ptr<CallTotals> totals_;
  InstanceProbe probe_;
};

}  // namespace

mr::RecordReaderFactory timeReaders(mr::RecordReaderFactory inner,
                                    std::shared_ptr<CallTotals> totals,
                                    std::size_t elementBytes, SpanLog* log,
                                    std::uint64_t query, std::uint64_t parent) {
  return [inner = std::move(inner), totals = std::move(totals), elementBytes,
          log, query, parent](const nd::Region& region) {
    const auto t0 = Clock::now();
    auto reader = inner(region);
    InstanceProbe probe(log, "scifile.read", query, parent, t0);
    probe.addBusy(nanosSince(t0));
    totals->readBytes +=
        static_cast<std::uint64_t>(region.volume()) * elementBytes;
    return std::make_unique<TimedReader>(std::move(reader), totals,
                                         std::move(probe));
  };
}

mr::ReducerFactory timeReducers(mr::ReducerFactory inner,
                                std::shared_ptr<CallTotals> totals,
                                SpanLog* log, std::uint64_t query,
                                std::uint64_t parent) {
  return [inner = std::move(inner), totals = std::move(totals), log, query,
          parent] {
    InstanceProbe probe(log, "scihadoop.reduce", query, parent, Clock::now());
    return std::make_unique<TimedReducer>(inner(), totals, std::move(probe));
  };
}

}  // namespace sidr::perfbench
