// The paper-query benchmark's workloads. See README.md in this
// directory for why each workload exists, which layer it bypasses, and
// which modes no workload runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sidr::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: untraced run reporting the end-to-end metrics. true: traced
  /// run reporting the per-layer metrics (plus the tracing overhead).
  bool trace = false;
  /// Scratch directory for spill files and the written trace.
  std::string workDir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// Every output matched the oracle and every self-check held.
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Queries that threw, differed from the oracle, or reported
  /// annotationViolations > 0 (failed / attempted is failed_ratio).
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Names accepted by runWorkload, in documentation order.
const std::vector<std::string>& workloadNames();

/// Builds the workload's inputs from options.seed, runs it for
/// options.seconds and returns its metrics. Throws std::invalid_argument
/// for an unknown workload name.
RunReport runWorkload(const RunOptions& options);

}  // namespace sidr::perfbench
