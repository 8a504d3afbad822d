#include "mapreduce/engine.hpp"

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "mapreduce/job_context.hpp"

namespace sidr::mr {

std::vector<KeyValue> JobResult::collectAll() const {
  // Each reducer's output is already key-sorted (the merger iterates
  // keys ascending), so a k-way merge over the outputs suffices — no
  // full re-sort of the concatenation, and no per-output staging
  // copies: SegmentMerger streams straight out of the ReduceOutput
  // vectors and the result is filled through one exact-size reserve.
  std::size_t total = 0;
  std::vector<SegmentMerger::Input> inputs;
  inputs.reserve(outputs.size());
  for (const ReduceOutput& out : outputs) {
    total += out.records.size();
    SegmentMerger::Input in;
    in.run = &out.records;
    in.runLin = out.linearKeys.data();
    inputs.push_back(in);
  }
  SegmentMerger merger{std::span<const SegmentMerger::Input>(inputs)};
  std::vector<KeyValue> all;
  all.reserve(total);
  merger.forEachRecord(
      [&all](const KeyValue& rec, std::uint64_t /*lin*/) { all.push_back(rec); });
  return all;
}

Engine::Engine(JobSpec spec) : spec_(std::move(spec)) {
  validateJobSpec(spec_);
}

JobResult Engine::run() {
  // The solo driver is now a thin shell over JobContext: one context,
  // numThreads workers spinning its claim loop, one finalize. The
  // multi-job EngineService drives the same context through the
  // external claim API instead.
  const std::uint32_t nThreads = std::max(1u, spec_.numThreads);
  JobContext ctx(std::move(spec_), /*sharedPool=*/nullptr);
  ctx.start();
  {
    std::vector<std::jthread> workers;
    workers.reserve(nThreads);
    for (std::uint32_t i = 0; i < nThreads; ++i) {
      workers.emplace_back([&ctx] { ctx.workerLoop(); });
    }
    // joined by jthread destructors
  }
  JobOutcome outcome = ctx.finalize();
  if (outcome.error) std::rethrow_exception(outcome.error);
  return std::move(outcome.result);
}

}  // namespace sidr::mr
