// paper_bench: runs one workload of the paper-query benchmark and prints
// its metrics, ending with one JSON line:
//
//   paper_bench --workload q1_median|q2_filter_spill|fleet_mixed
//               [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//
//   {"correct": true, "attempted": 41, "failed": 0,
//    "metrics": {"query_s": {"value": 0.51, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics of untraced queries;
// --trace 1 reports the per-layer metrics of a traced run and writes its
// spans to DIR/trace-<workload>-seed<N>.json. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using sidr::perfbench::RunOptions;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "paper_bench: " << why
            << "\nusage: paper_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\nworkloads:";
  for (const std::string& name : sidr::perfbench::workloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  std::exit(2);
}

RunOptions parseArgs(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--work-dir") {
        o.workDir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parseArgs(argc, argv);
  sidr::perfbench::RunReport report;
  try {
    report = sidr::perfbench::runWorkload(options);
  } catch (const std::exception& e) {
    std::cerr << "paper_bench: " << e.what() << "\n";
    return 1;
  }
  std::printf("# workload=%s seed=%llu trace=%d attempted=%llu failed=%llu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& m : report.metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
