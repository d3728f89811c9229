// The three workloads of the repository benchmark. Each runs one seeded
// workload, checks every answer, and prints its report (see METRICS.md):
// the end-to-end metrics without tracing, the per-layer metrics with it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small data and rates, for the benchmark's own smoke tests.
  bool tiny = false;
  /// Directory the traced run writes its spans into; empty = none.
  std::string span_dir;
  std::string node_binary;
};

/// Each returns the process exit code: 0 when every answer was correct.
int RunServe(const RunConfig& config);
int RunVersionCycle(const RunConfig& config);
int RunReplicated(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
