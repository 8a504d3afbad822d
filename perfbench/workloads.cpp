#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "mapreduce/engine.hpp"
#include "mapreduce/engine_service.hpp"
#include "obs/report.hpp"
#include "oracle.hpp"
#include "probes.hpp"
#include "scihadoop/datagen.hpp"
#include "scihadoop/query_parser.hpp"
#include "sidr/planner.hpp"

namespace sidr::perfbench {

namespace {

namespace fs = std::filesystem;

/// Service worker threads on the fleet (the reference box has 4 cores).
constexpr std::uint32_t kFleetThreads = 4;
/// Engine worker threads on the solo workloads: half the cores. A solo
/// query waits for its slowest task, so the fewer cores it needs, the more
/// of the VM the generator thread, the OS or the host can take before a
/// task stalls. At 4 threads a one-core load beside the benchmark slowed
/// Query 1 over 187 MB by a quarter; at 3 and 2 it did not move it. On the
/// 37 MB q1 under host CPU steal, 2 threads spread least (README.md).
constexpr std::uint32_t kSoloThreads = 2;
/// Every dataset is float64.
constexpr std::size_t kElementBytes = 8;
/// Set-up is repeated and its median reported, so a one-off page-fault
/// storm does not read as a set-up regression.
constexpr int kSetupRepeats = 5;
/// Slack for the trace self-check: span end points are sampled a few
/// instructions apart from the wrapped calls they bracket.
constexpr double kSelfCheckSlackSeconds = 1e-3;

// ---------------------------------------------------------------------
// Inputs

/// One input array. Its values are generated once from the seed (the
/// source data the oracle reads), then written into a memory-backed
/// sci::Dataset during set-up; the engine only ever sees the dataset.
struct InputArray {
  std::string variable;
  nd::Coord shape;
  std::vector<double> values;
  std::shared_ptr<sci::Dataset> dataset;
};

InputArray generateArray(std::string variable, nd::Coord shape,
                         const sh::ValueFn& field) {
  InputArray a{std::move(variable), shape, {}, nullptr};
  a.values.reserve(static_cast<std::size_t>(shape.volume()));
  for (nd::RegionCursor c(nd::Region::wholeSpace(shape)); c.valid(); c.next()) {
    a.values.push_back(field(c.coord()));
  }
  return a;
}

struct SetupResult {
  double setupS = 0.0;     ///< median over repetitions
  double writeS = 0.0;     ///< median scifile write time per repetition
  double writeBytes = 0.0; ///< bytes of every built dataset
};

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// Set-up: writes every array into a memory-backed SNDF dataset through
/// sh::makeMemoryDataset and, when `service` is given, starts an
/// EngineService. Repeated kSetupRepeats times (the previous build is
/// released before each repetition's clock starts); the last build is
/// kept.
SetupResult setUp(std::vector<InputArray>& arrays,
                  std::unique_ptr<mr::EngineService>* service,
                  const mr::ServiceConfig& serviceConfig, SpanLog* log) {
  std::vector<double> setups;
  std::vector<double> writes;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    for (InputArray& a : arrays) a.dataset.reset();
    if (service != nullptr) service->reset();
    ScopedSpan setupSpan(log, "setup", 0, 0);
    const auto t0 = Clock::now();
    double writeS = 0.0;
    for (InputArray& a : arrays) {
      ScopedSpan span(log, "scifile.write", 0, setupSpan.id());
      const auto tw = Clock::now();
      const std::vector<double>& values = a.values;
      const nd::Coord shape = a.shape;
      a.dataset = sh::makeMemoryDataset(
          a.variable, sci::DataType::kFloat64, shape,
          [&values, shape](const nd::Coord& c) {
            return values[static_cast<std::size_t>(nd::linearize(c, shape))];
          });
      writeS += secondsSince(tw);
    }
    if (service != nullptr) {
      ScopedSpan span(log, "mapreduce.service_start", 0, setupSpan.id());
      *service = std::make_unique<mr::EngineService>(serviceConfig);
    }
    setups.push_back(secondsSince(t0));
    writes.push_back(writeS);
  }
  SetupResult r;
  r.setupS = median(setups);
  r.writeS = median(writes);
  for (const InputArray& a : arrays) {
    r.writeBytes += static_cast<double>(a.dataset->totalByteSize());
  }
  return r;
}

// ---------------------------------------------------------------------
// Per-query samples

/// Per-layer figures of one traced query.
struct LayerSample {
  double readS = 0.0;
  double readBytes = 0.0;
  double mapS = 0.0;
  double mapRecords = 0.0;
  double reduceS = 0.0;
  double keyblocks = 0.0;
  double fetchPairs = 0.0;
  double attemptS = 0.0;  ///< task-attempt span seconds, map + reduce
  double spillEncodeS = 0.0;
  double spillWriteS = 0.0;
  double commitS = 0.0;
  double spillFiles = 0.0;
  double fetchS = 0.0;
  double mergeS = 0.0;
  double shuffleBytes = 0.0;
  double peakResidentBytes = 0.0;
  double mapsExecuted = 0.0;
  double cacheBytesServed = 0.0;
};

struct QuerySample {
  bool cacheServed = false;
  double parseS = 0.0;
  double planS = 0.0;
  double runS = 0.0;      ///< Engine::run, or submit -> wait return
  double collectS = 0.0;
  double queryS = 0.0;    ///< plan call -> collectAll return
  double firstResultS = 0.0;
  double latencyS = 0.0;  ///< Engine::run, or submit -> done
  double cpuS = 0.0;
  double queueWaitS = 0.0;  ///< run call -> return, minus totalSeconds
  LayerSample layers;
};

template <typename Field>
std::vector<double> pick(const std::vector<QuerySample>& samples, Field f) {
  std::vector<double> xs;
  xs.reserve(samples.size());
  for (const QuerySample& s : samples) xs.push_back(f(s));
  return xs;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Phase totals of one traced job, written to the trace file.
struct JobTraceRecord {
  std::uint64_t query = 0;
  std::uint64_t jobId = 0;
  bool cacheServed = false;
  std::vector<obs::PhaseTotal> phases;
};

/// Everything a traced run keeps in memory until it ends.
struct TraceSink {
  SpanLog log;
  std::vector<JobTraceRecord> jobs;
};

/// Oracle check of one finished query; empty when correct.
std::string checkResult(const mr::JobResult& r,
                        const std::vector<mr::KeyValue>& all,
                        const Reference& ref) {
  if (r.annotationViolations > 0) {
    return "annotationViolations = " + std::to_string(r.annotationViolations);
  }
  return compareWithReference(all, ref);
}

/// Fills `out` from a traced job: the engine's own phase totals
/// (obs::phaseTotals over JobResult::trace), its result counters and the
/// wrapped-call totals. Returns the self-check verdict (empty = holds):
/// the wrapped reader and reducer time and every phase total must fit
/// inside the task-attempt spans of its side. Cache-served jobs run no
/// map attempt; their map-side commit spans nest in kCacheFetch spans,
/// which count as that side's container. Spill encode and write run on
/// the spill-writer pool, up to `spillWriters` threads for one waiting
/// map attempt, so their bound is that many times the map attempts.
std::string foldTrace(const mr::JobResult& r, std::uint32_t keyblocks,
                      std::uint32_t spillWriters, const CallTotals& calls,
                      LayerSample& out, JobTraceRecord& record) {
  record.jobId = r.trace.jobId;
  record.cacheServed = r.cacheServedMaps > 0;
  record.phases = obs::phaseTotals(r.trace);
  double mapAttemptS = 0.0;
  double mapContainerS = 0.0;
  double reduceAttemptS = 0.0;
  for (const obs::PhaseTotal& row : record.phases) {
    const bool map = row.side == obs::TaskSide::kMap;
    switch (row.phase) {
      case obs::Phase::kTaskAttempt:
        (map ? mapAttemptS : reduceAttemptS) += row.seconds;
        if (map) out.mapsExecuted += static_cast<double>(row.spans);
        break;
      case obs::Phase::kCacheFetch:
        mapContainerS += row.seconds;
        break;
      case obs::Phase::kMap:
        out.mapS += row.seconds;
        out.mapRecords += static_cast<double>(row.records);
        break;
      case obs::Phase::kSpillEncode:
        out.spillEncodeS += row.seconds;
        break;
      case obs::Phase::kSpillWrite:
        out.spillWriteS += row.seconds;
        out.spillFiles += static_cast<double>(row.spans);
        break;
      case obs::Phase::kRenameCommit:
        out.commitS += row.seconds;
        break;
      case obs::Phase::kFetch:
        out.fetchS += row.seconds;
        break;
      case obs::Phase::kMerge:
        out.mergeS += row.seconds;
        break;
      default:
        break;
    }
  }
  mapContainerS += mapAttemptS;
  out.attemptS = mapAttemptS + reduceAttemptS;
  out.readS = calls.readSeconds();
  out.readBytes = static_cast<double>(calls.readBytes.load());
  out.reduceS = calls.reduceSeconds();
  out.keyblocks = keyblocks;
  out.fetchPairs = static_cast<double>(r.shuffleConnections);
  out.shuffleBytes = static_cast<double>(r.shuffleBytes);
  out.peakResidentBytes = static_cast<double>(r.peakResidentSegmentBytes);
  out.cacheBytesServed = static_cast<double>(r.cacheBytesServed);

  const double slack = kSelfCheckSlackSeconds;
  if (out.readS > mapAttemptS + slack) {
    return "wrapped reader seconds exceed map attempt seconds";
  }
  if (out.reduceS > reduceAttemptS + slack) {
    return "wrapped reducer seconds exceed reduce attempt seconds";
  }
  for (const obs::PhaseTotal& row : record.phases) {
    if (row.phase == obs::Phase::kTaskAttempt ||
        row.phase == obs::Phase::kCacheFetch) {
      continue;
    }
    const bool pooled = row.phase == obs::Phase::kSpillEncode ||
                        row.phase == obs::Phase::kSpillWrite;
    const double container =
        row.side != obs::TaskSide::kMap ? reduceAttemptS
        : pooled                        ? mapAttemptS * spillWriters
                                        : mapContainerS;
    if (row.seconds > container + slack) {
      return std::string("phase ") + obs::phaseName(row.phase) +
             " seconds exceed the attempt spans of its side";
    }
  }
  return {};
}

/// Counts a failed query: stderr gets the reason, the report the tally.
void recordFailure(RunReport& report, std::uint64_t query,
                   const std::string& why) {
  ++report.failed;
  report.correct = false;
  std::cerr << "perfbench: query " << query << " failed: " << why << "\n";
}

/// What a run measured, before it is turned into metrics.
struct Collected {
  SetupResult setup;
  std::vector<QuerySample> untraced;
  std::vector<QuerySample> traced;
  /// Denominators of queries_per_s and cpu_s: wall and process-CPU
  /// seconds spent serving the untraced queries.
  double untracedWallS = 0.0;
  double untracedCpuS = 0.0;
  std::vector<double> busyRatios;
  double peakConcurrentJobs = 0.0;
};

// ---------------------------------------------------------------------
// Solo workloads: one query at a time through mr::Engine::run

struct SoloWorkload {
  const char* query;
  const char* variable;
  nd::Coord shape;
  sh::ValueFn field;
  core::PlanOptions options;
};

/// Paper Query 1 (the median over windspeed), closed loop, in-memory
/// shuffle. Map and reduce operators do the work; the shuffle moves
/// segment handles, never bytes. Bypasses: spill, commit-to-disk, fetch
/// I/O and the service. Operator and scheduling changes show here;
/// spill and transport changes should not move it. The input is
/// {72,36,72,25} (37 MB), not Q2's {360,36,72,25} (187 MB): on a shared
/// 4-core VM the 187 MB query's time followed the host's load, and its
/// first keyblock's time spread 12-25% between runs, against 3-6% at
/// 37 MB over the same minutes.
SoloWorkload q1Median(std::uint64_t seed) {
  SoloWorkload w{"median(windspeed, eshape={2,6,12,5})", "windspeed",
                 nd::Coord{72, 36, 72, 25}, sh::windspeedField(seed), {}};
  w.options.system = core::SystemMode::kSidr;
  w.options.numReducers = 22;  // the paper's SS-22
  w.options.numThreads = kSoloThreads;
  w.options.desiredSplitCount = 48;
  return w;
}

/// Paper Query 2 (the 3-sigma filter over Normal(0,1)) at the fig 10
/// sweep point r=176, eager spill: every map writes, fsyncs and renames
/// one file per keyblock although few (map, keyblock) pairs carry data.
/// The spill, commit, fetch and merge path does the work. Bypasses: the
/// holistic reduce (filter keeps ~0.1% of values) and the service.
SoloWorkload q2FilterSpill(std::uint64_t seed) {
  SoloWorkload w{"filter(measurements, eshape={2,6,12,5}, threshold=3)",
                 "measurements", nd::Coord{360, 36, 72, 25},
                 sh::normalField(0.0, 1.0, seed), {}};
  w.options.system = core::SystemMode::kSidr;
  w.options.numReducers = 176;
  w.options.numThreads = kSoloThreads;
  w.options.desiredSplitCount = 48;
  return w;  // spillDirectory is set per run
}

/// Runs one query end to end. Untraced queries only time the public
/// calls; traced ones also record the job trace, wrap the reader and
/// reducer factories and leave benchmark spans.
std::optional<QuerySample> runSoloQuery(const SoloWorkload& w,
                                        const InputArray& input,
                                        const Reference& ref, bool traced,
                                        std::uint64_t id, TraceSink* sink,
                                        RunReport& report) {
  SpanLog* log = traced ? &sink->log : nullptr;
  QuerySample s;
  auto calls = std::make_shared<CallTotals>();
  try {
    ScopedSpan root(log, "query", id, 0);
    sh::StructuralQuery query;
    {
      ScopedSpan span(log, "scihadoop.parse", id, root.id());
      const auto t = Clock::now();
      query = sh::parseQuery(w.query);
      s.parseS = secondsSince(t);
    }
    const double cpu0 = processCpuSeconds();
    const auto tq = Clock::now();
    core::PlanOptions options = w.options;
    options.recordTrace = traced;
    std::optional<core::QueryPlan> plan;
    {
      ScopedSpan span(log, "sidr.plan", id, root.id());
      plan = core::QueryPlanner(query, input.shape)
                 .plan(input.dataset, 0, options);
      s.planS = secondsSince(tq);
    }
    const std::uint32_t keyblocks = plan->spec.numReducers;
    const std::uint32_t spillWriters = plan->spec.spillWriters;
    mr::JobResult result;
    {
      ScopedSpan span(log, "mapreduce.run", id, root.id());
      if (traced) {
        plan->spec.readerFactory =
            timeReaders(std::move(plan->spec.readerFactory), calls,
                        kElementBytes, log, id, span.id());
        plan->spec.reducerFactory = timeReducers(
            std::move(plan->spec.reducerFactory), calls, log, id, span.id());
      }
      const auto t = Clock::now();
      result = mr::Engine(std::move(plan->spec)).run();
      s.runS = secondsSince(t);
    }
    std::vector<mr::KeyValue> all;
    {
      ScopedSpan span(log, "mapreduce.collect", id, root.id());
      const auto t = Clock::now();
      all = result.collectAll();
      s.collectS = secondsSince(t);
    }
    s.queryS = secondsSince(tq);
    s.cpuS = processCpuSeconds() - cpu0;
    s.firstResultS = s.planS + result.firstResultSeconds;
    s.latencyS = s.runS;
    s.queueWaitS = s.runS - result.totalSeconds;
    if (const std::string bad = checkResult(result, all, ref); !bad.empty()) {
      recordFailure(report, id, bad);
      return std::nullopt;
    }
    if (traced) {
      JobTraceRecord record;
      record.query = id;
      const std::string bad =
          foldTrace(result, keyblocks, spillWriters, *calls, s.layers, record);
      sink->jobs.push_back(std::move(record));
      if (!bad.empty()) {
        recordFailure(report, id, "trace self-check: " + bad);
        return std::nullopt;
      }
    }
  } catch (const std::exception& e) {
    recordFailure(report, id, e.what());
    return std::nullopt;
  }
  return s;
}

/// Closed loop over one solo workload: one warm-up query (discarded:
/// the first query in a process pays page faults and allocator growth),
/// then queries back to back until `seconds` have passed. A traced run
/// alternates untraced and traced queries, so the tracing overhead is
/// measured on the same inputs in the same process.
Collected runSolo(const SoloWorkload& w, const RunOptions& o,
                  TraceSink* sink, RunReport& report) {
  std::vector<InputArray> arrays;
  arrays.push_back(generateArray(w.variable, w.shape, w.field));
  const Reference ref =
      computeReference(arrays[0].values, w.shape, sh::parseQuery(w.query));
  Collected c;
  c.setup = setUp(arrays, nullptr, {}, sink ? &sink->log : nullptr);
  arrays[0].values = {};  // the engine reads the dataset only

  fs::path spillDir;
  if (!w.options.spillDirectory.empty()) {
    spillDir = w.options.spillDirectory;
    fs::create_directories(spillDir);
  }
  // A solo Engine::run uses jobId 0; its namespace is removed between
  // queries, outside the timed interval.
  const auto dropSpill = [&] {
    if (!spillDir.empty()) fs::remove_all(spillDir / mr::jobSpillDirName(0));
  };

  std::uint64_t id = 0;
  ++report.attempted;  // the warm-up is checked, then discarded
  runSoloQuery(w, arrays[0], ref, false, ++id, sink, report);
  dropSpill();

  // At least this many queries of each kind, however long they take.
  const std::uint64_t minQueries = o.trace ? 6 : 3;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (secondsSince(start) >= o.seconds && i >= minQueries) break;
    const bool traced = o.trace && i % 2 == 1;
    std::vector<QuerySample>& into = traced ? c.traced : c.untraced;
    ++report.attempted;
    auto s = runSoloQuery(w, arrays[0], ref, traced, ++id, sink, report);
    dropSpill();
    if (!s) continue;
    if (traced) {
      c.busyRatios.push_back(s->layers.attemptS / (kSoloThreads * s->runS));
    } else {
      c.untracedWallS += s->queryS;
      c.untracedCpuS += s->cpuS;
    }
    into.push_back(*s);
  }
  if (!spillDir.empty()) fs::remove_all(spillDir);
  return c;
}

// ---------------------------------------------------------------------
// fleet_mixed: many concurrent queries through mr::EngineService

/// Fleet query templates: median at two extraction shapes, mean and max
/// over windspeed; filter at two extraction shapes over measurements.
struct FleetTemplate {
  const char* query;
  std::size_t array;  ///< index into the fleet's input arrays
};
const FleetTemplate kFleetTemplates[] = {
    {"median(windspeed, eshape={2,6,12,5})", 0},
    {"median(windspeed, eshape={4,6,6,5})", 0},
    {"mean(windspeed, eshape={2,6,12,5})", 0},
    {"max(windspeed, eshape={2,6,12,5})", 0},
    {"filter(measurements, eshape={2,6,12,5}, threshold=3)", 1},
    {"filter(measurements, eshape={4,12,6,5}, threshold=3)", 1},
};
constexpr std::size_t kFleetTemplateCount = std::size(kFleetTemplates);
/// Queries drawn per round; each round runs on a fresh service, so every
/// round starts with a cold segment cache.
constexpr std::size_t kFleetRoundQueries = 200;
/// Closed loop: queries kept outstanding by the one generator thread.
constexpr std::size_t kFleetOutstanding = 4;

mr::ServiceConfig fleetServiceConfig() {
  mr::ServiceConfig config;
  config.numThreads = kFleetThreads;
  config.maxConcurrentJobs = 4;
  config.policy = mr::SchedulingPolicy::kReduceFirst;
  config.segmentCacheEnabled = true;
  return config;
}

/// The fleet's shared state: inputs and one reference per template.
struct Fleet {
  std::uint64_t seed = 0;
  std::vector<InputArray> arrays;
  std::vector<Reference> refs;  ///< one per template
};

struct InFlight {
  std::uint64_t id = 0;
  std::size_t tmpl = 0;
  mr::JobHandle handle;
  Clock::time_point start;     ///< before parse
  Clock::time_point planStart;
  Clock::time_point submitAt;
  double parseS = 0.0;
  double planS = 0.0;
  std::uint32_t keyblocks = 0;
  std::uint32_t spillWriters = 0;
  std::shared_ptr<CallTotals> calls;
  std::uint64_t rootSpan = 0;
  std::uint64_t waitSpan = 0;
};

/// Parses, plans and submits one fleet query. `named` queries carry the
/// dataset identity, so the segment cache may serve their repeats warm.
InFlight submitFleetQuery(const Fleet& fleet, mr::EngineService& service,
                          std::size_t tmpl, bool named, bool traced,
                          std::uint64_t id, TraceSink* sink) {
  const FleetTemplate& t = kFleetTemplates[tmpl];
  const InputArray& input = fleet.arrays[t.array];
  SpanLog* log = traced ? &sink->log : nullptr;
  InFlight f;
  f.id = id;
  f.tmpl = tmpl;
  f.calls = std::make_shared<CallTotals>();
  if (log != nullptr) {
    f.rootSpan = log->newId();
    f.waitSpan = log->newId();
  }
  f.start = Clock::now();
  sh::StructuralQuery query;
  {
    ScopedSpan span(log, "scihadoop.parse", id, f.rootSpan);
    query = sh::parseQuery(t.query);
  }
  f.planStart = Clock::now();
  f.parseS = std::chrono::duration<double>(f.planStart - f.start).count();
  core::PlanOptions options;
  options.system = core::SystemMode::kSidr;
  options.numReducers = 8;
  options.desiredSplitCount = 16;
  options.numThreads = kFleetThreads;
  options.recordTrace = traced;
  if (named) {
    options.datasetId = input.variable + "@seed" + std::to_string(fleet.seed);
  }
  std::optional<core::QueryPlan> plan;
  {
    ScopedSpan span(log, "sidr.plan", id, f.rootSpan);
    plan = core::QueryPlanner(query, input.shape)
               .plan(input.dataset, 0, options);
  }
  f.planS = secondsSince(f.planStart);
  f.keyblocks = plan->spec.numReducers;
  f.spillWriters = plan->spec.spillWriters;
  if (traced) {
    plan->spec.readerFactory =
        timeReaders(std::move(plan->spec.readerFactory), f.calls,
                    kElementBytes, log, id, f.waitSpan);
    plan->spec.reducerFactory = timeReducers(
        std::move(plan->spec.reducerFactory), f.calls, log, id, f.waitSpan);
  }
  f.submitAt = Clock::now();
  f.handle = service.submit(std::move(plan->spec));
  return f;
}

/// Completes one finished fleet query: wait, collect, check, fold.
std::optional<QuerySample> finishFleetQuery(const Fleet& fleet, InFlight& f,
                                            Clock::time_point doneAt,
                                            bool traced, TraceSink* sink,
                                            RunReport& report) {
  QuerySample s;
  s.parseS = f.parseS;
  s.planS = f.planS;
  s.latencyS = std::chrono::duration<double>(doneAt - f.submitAt).count();
  try {
    const mr::JobResult& r = f.handle.wait();
    const auto waited = Clock::now();
    s.runS = std::chrono::duration<double>(waited - f.submitAt).count();
    s.queueWaitS = s.runS - r.totalSeconds;
    const std::vector<mr::KeyValue> all = r.collectAll();
    const auto collected = Clock::now();
    s.collectS = std::chrono::duration<double>(collected - waited).count();
    s.queryS = std::chrono::duration<double>(collected - f.planStart).count();
    s.firstResultS = s.planS + r.firstResultSeconds;
    s.cacheServed = r.cacheServedMaps > 0;
    if (traced) {
      SpanLog& log = sink->log;
      log.record({f.waitSpan, f.rootSpan, f.id, "mapreduce.submit_wait",
                  log.toSeconds(f.submitAt), log.toSeconds(waited),
                  s.runS});
      log.record({log.newId(), f.rootSpan, f.id, "mapreduce.collect",
                  log.toSeconds(waited), log.toSeconds(collected),
                  s.collectS});
      log.record({f.rootSpan, 0, f.id, "query", log.toSeconds(f.start),
                  log.toSeconds(collected),
                  std::chrono::duration<double>(collected - f.start).count()});
    }
    const std::string bad = checkResult(r, all, fleet.refs[f.tmpl]);
    if (!bad.empty()) {
      recordFailure(report, f.id, bad);
      return std::nullopt;
    }
    if (traced) {
      JobTraceRecord record;
      record.query = f.id;
      const std::string check =
          foldTrace(r, f.keyblocks, f.spillWriters, *f.calls, s.layers, record);
      sink->jobs.push_back(std::move(record));
      if (!check.empty()) {
        recordFailure(report, f.id, "trace self-check: " + check);
        return std::nullopt;
      }
    }
  } catch (const std::exception& e) {
    recordFailure(report, f.id, e.what());
    return std::nullopt;
  }
  return s;
}

struct RoundTotals {
  double wallS = 0.0;
  double cpuS = 0.0;
  double attemptS = 0.0;
  std::uint32_t peakConcurrentJobs = 0;
};

/// One round: kFleetRoundQueries queries drawn by seed, kept
/// kFleetOutstanding deep by this (the only generator) thread, which
/// polls JobHandle::done() and refills as queries finish.
RoundTotals runFleetRound(const Fleet& fleet, mr::EngineService& service,
                          std::uint64_t roundSeed, bool traced,
                          std::uint64_t& nextId, TraceSink* sink,
                          RunReport& report, std::vector<QuerySample>& into) {
  // Every round runs the same mix, in an order drawn by seed: each
  // template equally often, half of each template's queries naming the
  // shared dataset identity. A mix drawn independently per query would
  // make the seed, not the program, move the figures.
  std::vector<std::pair<std::size_t, bool>> draws(kFleetRoundQueries);
  for (std::size_t k = 0; k < draws.size(); ++k) {
    draws[k] = {k % kFleetTemplateCount, (k / kFleetTemplateCount) % 2 == 1};
  }
  std::mt19937_64 rng(roundSeed);
  for (std::size_t k = draws.size(); k > 1; --k) {  // Fisher-Yates
    std::swap(draws[k - 1], draws[static_cast<std::size_t>(rng() % k)]);
  }
  RoundTotals totals;
  std::vector<InFlight> inFlight;
  std::size_t next = 0;
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  while (next < draws.size() || !inFlight.empty()) {
    while (inFlight.size() < kFleetOutstanding && next < draws.size()) {
      const std::uint64_t id = ++nextId;
      ++report.attempted;
      try {
        inFlight.push_back(submitFleetQuery(fleet, service, draws[next].first,
                                            draws[next].second, traced, id,
                                            sink));
      } catch (const std::exception& e) {
        recordFailure(report, id, e.what());
      }
      ++next;
    }
    bool progressed = false;
    for (std::size_t i = 0; i < inFlight.size();) {
      if (!inFlight[i].handle.done()) {
        ++i;
        continue;
      }
      const auto doneAt = Clock::now();
      auto s = finishFleetQuery(fleet, inFlight[i], doneAt, traced, sink,
                                report);
      if (s) {
        totals.attemptS += s->layers.attemptS;
        into.push_back(*s);
      }
      inFlight.erase(inFlight.begin() + static_cast<std::ptrdiff_t>(i));
      progressed = true;
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  totals.wallS = secondsSince(t0);
  totals.cpuS = processCpuSeconds() - cpu0;
  totals.peakConcurrentJobs = service.stats().peakConcurrentJobs;
  return totals;
}

/// Mixed fleet: admission, cross-job scheduling, per-query planning and
/// the warm-cache path do the work. Bypasses: spill (in-memory shuffle)
/// and any single query's operator cost (half the queries are cache-served
/// and the rest are spread over six templates).
Collected runFleet(const RunOptions& o, TraceSink* sink, RunReport& report) {
  Fleet fleet;
  fleet.seed = o.seed;
  const nd::Coord shape{72, 36, 72, 25};
  fleet.arrays.push_back(
      generateArray("windspeed", shape, sh::windspeedField(o.seed)));
  fleet.arrays.push_back(generateArray("measurements", shape,
                                       sh::normalField(0.0, 1.0, o.seed)));
  for (const FleetTemplate& t : kFleetTemplates) {
    fleet.refs.push_back(computeReference(fleet.arrays[t.array].values, shape,
                                          sh::parseQuery(t.query)));
  }
  Collected c;
  std::unique_ptr<mr::EngineService> service;
  const mr::ServiceConfig config = fleetServiceConfig();
  c.setup = setUp(fleet.arrays, &service, config,
                  sink ? &sink->log : nullptr);
  for (InputArray& a : fleet.arrays) a.values = {};

  std::uint64_t nextId = 0;
  {  // warm-up: one uncached query, checked and discarded
    ++report.attempted;
    InFlight f = submitFleetQuery(fleet, *service, 0, false, false, ++nextId,
                                  sink);
    finishFleetQuery(fleet, f, Clock::now(), false, sink, report);
  }

  const auto start = Clock::now();
  const std::uint64_t minRounds = o.trace ? 2 : 1;
  for (std::uint64_t round = 0;; ++round) {
    if (secondsSince(start) >= o.seconds && round >= minRounds) break;
    const bool traced = o.trace && round % 2 == 1;
    if (round > 0) service = std::make_unique<mr::EngineService>(config);
    std::vector<QuerySample>& into = traced ? c.traced : c.untraced;
    const RoundTotals t =
        runFleetRound(fleet, *service, o.seed * 1000003 + round, traced,
                      nextId, sink, report, into);
    if (traced) {
      c.busyRatios.push_back(t.attemptS / (kFleetThreads * t.wallS));
      c.peakConcurrentJobs =
          std::max(c.peakConcurrentJobs,
                   static_cast<double>(t.peakConcurrentJobs));
    } else {
      c.untracedWallS += t.wallS;
      c.untracedCpuS += t.cpuS;
    }
  }
  return c;
}

// ---------------------------------------------------------------------
// Metrics

/// End-to-end metrics, from the untraced queries only.
std::vector<Metric> endToEndMetrics(const Collected& c) {
  const auto& u = c.untraced;
  const double n = static_cast<double>(u.size());
  return {
      {"setup_s", c.setup.setupS, "s"},
      {"query_s", median(pick(u, [](auto& s) { return s.queryS; })), "s"},
      {"first_result_s",
       median(pick(u, [](auto& s) { return s.firstResultS; })), "s"},
      {"latency_p50_s", median(pick(u, [](auto& s) { return s.latencyS; })),
       "s"},
      {"queries_per_s", n / c.untracedWallS, "1/s"},
      {"cpu_s", c.untracedCpuS / n, "s"},
      {"peak_rss_mb", peakRssMiB(), "MiB"},
  };
}

/// Per-layer metrics, from the traced queries. Times are medians per
/// query (span-seconds summed over a job's tasks); counts, bytes and
/// ratios are means per query.
std::vector<Metric> perLayerMetrics(const Collected& c) {
  const auto& t = c.traced;
  const auto layerMedian = [&](double LayerSample::*f) {
    return median(pick(t, [f](const QuerySample& s) { return s.layers.*f; }));
  };
  const auto layerMean = [&](double LayerSample::*f) {
    return mean(pick(t, [f](const QuerySample& s) { return s.layers.*f; }));
  };
  std::vector<QuerySample> cold;
  std::copy_if(t.begin(), t.end(), std::back_inserter(cold),
               [](const QuerySample& s) { return !s.cacheServed; });
  const double spillFiles = layerMean(&LayerSample::spillFiles);
  const double fetchPairs = layerMean(&LayerSample::fetchPairs);
  const double cacheHits =
      mean(pick(t, [](auto& s) { return s.cacheServed ? 1.0 : 0.0; }));
  const double tracedQueryS = median(pick(t, [](auto& s) { return s.queryS; }));
  const double untracedQueryS =
      median(pick(c.untraced, [](auto& s) { return s.queryS; }));
  std::vector<Metric> metrics{
      {"scifile.write_s", c.setup.writeS, "s"},
      {"scifile.write_bytes", c.setup.writeBytes, "bytes"},
      {"scifile.read_s", layerMedian(&LayerSample::readS), "s"},
      {"scifile.read_bytes", layerMean(&LayerSample::readBytes), "bytes"},
      {"scihadoop.parse_s", median(pick(t, [](auto& s) { return s.parseS; })),
       "s"},
      {"scihadoop.map_s",
       median(pick(cold, [](auto& s) { return s.layers.mapS; })), "s"},
      {"scihadoop.map_records",
       mean(pick(cold, [](auto& s) { return s.layers.mapRecords; })),
       "count"},
      {"scihadoop.reduce_s", layerMedian(&LayerSample::reduceS), "s"},
      {"sidr.plan_s", median(pick(t, [](auto& s) { return s.planS; })), "s"},
      {"sidr.keyblocks", layerMean(&LayerSample::keyblocks), "count"},
      {"sidr.fetch_pairs", fetchPairs, "count"},
      {"mapreduce.run_s", median(pick(t, [](auto& s) { return s.runS; })),
       "s"},
      {"mapreduce.collect_s",
       median(pick(t, [](auto& s) { return s.collectS; })), "s"},
      {"mapreduce.worker_busy_ratio", median(c.busyRatios), "ratio"},
      {"mapreduce.commit_s", layerMedian(&LayerSample::commitS), "s"},
      {"mapreduce.spill_files", spillFiles, "count"},
      {"mapreduce.spill_useful_ratio",
       spillFiles > 0.0 ? fetchPairs / spillFiles : 0.0, "ratio"},
      {"mapreduce.fetch_s", layerMedian(&LayerSample::fetchS), "s"},
      {"mapreduce.merge_s", layerMedian(&LayerSample::mergeS), "s"},
      {"mapreduce.shuffle_bytes", layerMean(&LayerSample::shuffleBytes),
       "bytes"},
      {"mapreduce.peak_resident_bytes",
       layerMean(&LayerSample::peakResidentBytes), "bytes"},
      {"mapreduce.maps_executed", layerMean(&LayerSample::mapsExecuted),
       "count"},
      {"mapreduce.service.cache_hit_ratio", cacheHits, "ratio"},
      {"mapreduce.service.cache_bytes_served",
       layerMean(&LayerSample::cacheBytesServed), "bytes"},
      {"mapreduce.service.queue_wait_s",
       median(pick(t, [](auto& s) { return s.queueWaitS; })), "s"},
      // From the run's untraced queries. Not an end-to-end metric: on the
      // 187 MB q1 it spread past any allowed bound (README.md).
      {"mapreduce.service.latency_p95_s",
       quantile(pick(c.untraced, [](auto& s) { return s.latencyS; }), 0.95),
       "s"},
      {"mapreduce.service.peak_concurrent_jobs", c.peakConcurrentJobs,
       "count"},
      {"obs.trace_overhead_ratio", tracedQueryS / untracedQueryS, "ratio"},
  };
  // Spill phases run only on q2, which BENCHMARK.json does not gate; on
  // the gated workloads these times would read 0 in every run.
  if (spillFiles > 0.0) {
    metrics.push_back({"mapreduce.spill_encode_s",
                       layerMedian(&LayerSample::spillEncodeS), "s"});
    metrics.push_back({"mapreduce.spill_write_s",
                       layerMedian(&LayerSample::spillWriteS), "s"});
  }
  return metrics;
}

/// Writes the traced run's spans and per-job phase totals as JSON.
void writeTraceFile(const fs::path& path, const RunOptions& o,
                    const TraceSink& sink) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  out << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ",\n \"spans\": [";
  const std::vector<BenchSpan> spans = sink.log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"query\": " << s.query
        << ", \"name\": \"" << s.name << "\", \"start\": " << num(s.start)
        << ", \"end\": " << num(s.end) << ", \"busy\": " << num(s.busy) << "}";
  }
  out << "],\n \"jobs\": [";
  for (std::size_t i = 0; i < sink.jobs.size(); ++i) {
    const JobTraceRecord& j = sink.jobs[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"query\": " << j.query
        << ", \"job\": " << j.jobId
        << ", \"cache_served\": " << (j.cacheServed ? "true" : "false")
        << ", \"phases\": [";
    for (std::size_t k = 0; k < j.phases.size(); ++k) {
      const obs::PhaseTotal& p = j.phases[k];
      out << (k == 0 ? "" : ", ") << "{\"side\": \""
          << obs::taskSideName(p.side) << "\", \"phase\": \""
          << obs::phaseName(p.phase) << "\", \"spans\": " << p.spans
          << ", \"seconds\": " << num(p.seconds) << ", \"bytes\": " << p.bytes
          << ", \"records\": " << p.records << "}";
    }
    out << "]}";
  }
  out << "]}\n";
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"q1_median", "q2_filter_spill",
                                              "fleet_mixed"};
  return names;
}

RunReport runWorkload(const RunOptions& o) {
  RunReport report;
  std::unique_ptr<TraceSink> sink =
      o.trace ? std::make_unique<TraceSink>() : nullptr;
  const fs::path workDir = o.workDir;
  fs::create_directories(workDir);
  Collected c;
  if (o.workload == "q1_median") {
    c = runSolo(q1Median(o.seed), o, sink.get(), report);
  } else if (o.workload == "q2_filter_spill") {
    SoloWorkload w = q2FilterSpill(o.seed);
    w.options.spillDirectory =
        (workDir / ("spill-" + std::to_string(::getpid()))).string();
    c = runSolo(w, o, sink.get(), report);
  } else if (o.workload == "fleet_mixed") {
    c = runFleet(o, sink.get(), report);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (c.untraced.empty() || (o.trace && c.traced.empty())) {
    report.correct = false;  // nothing measured: every query failed
  }
  if (o.trace) {
    report.metrics = perLayerMetrics(c);
    writeTraceFile(workDir / ("trace-" + o.workload + "-seed" +
                              std::to_string(o.seed) + ".json"),
                   o, *sink);
  } else {
    report.metrics = endToEndMetrics(c);
  }
  return report;
}

}  // namespace sidr::perfbench
