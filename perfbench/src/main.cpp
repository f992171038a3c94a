// perfbench — end-to-end benchmark of the estimation service.
//
//   perfbench --workload <wire_fleet|exact_bigpop|sampled_soak>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Files (socket, snapshot, span dump) go to the current directory. The
// last line of standard output is the JSON result; progress and failed
// checks go to standard error. perfbench/run.py builds and runs it.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wire_fleet|exact_bigpop|"
               "sampled_soak> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Freed heap memory stays in this process: blocks up to 32 MiB come
  // from the heap instead of mmap, and the heap is never trimmed. On a VM
  // whose balloon reports free guest pages to the host, memory handed
  // back to the kernel costs host page faults when it is touched again,
  // and their price swung throughput 2x between identical runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);

  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();

  perfbench::Report report;
  if (args.workload == "wire_fleet") {
    perfbench::run_wire_fleet(args, report);
  } else if (args.workload == "exact_bigpop") {
    perfbench::run_exact_bigpop(args, report);
  } else if (args.workload == "sampled_soak") {
    perfbench::run_sampled_soak(args, report);
  } else {
    return usage();
  }
  for (const std::string& p : report.problems()) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
