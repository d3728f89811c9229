// perfbench_driver: runs one workload of the repository benchmark.
//
//   perfbench_driver --workload serve|version-cycle|replicated --seed N
//                    --seconds S --trace 0|1 [--tiny] [--span-dir DIR]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (name -> value, unit). Exit code 0 only when every answer
// the system gave was correct. perfbench/run.py builds and wraps this.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

#ifndef DMINT_NODE_BINARY
#define DMINT_NODE_BINARY "dmint_node"
#endif

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.node_binary = DMINT_NODE_BINARY;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--span-dir" && has_value) {
      config.span_dir = argv[++i];
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  // A peer that vanishes mid-reply must surface as an error, not a signal.
  std::signal(SIGPIPE, SIG_IGN);
  if (workload == "serve") return perfbench::RunServe(config);
  if (workload == "version-cycle") return perfbench::RunVersionCycle(config);
  if (workload == "replicated") return perfbench::RunReplicated(config);
  std::fprintf(stderr,
               "usage: perfbench_driver --workload serve|version-cycle|"
               "replicated --seed N --seconds S --trace 0|1 [--tiny]\n");
  return 2;
}
