// perfbench: the repository benchmark. Runs one workload (grid or
// serve_cold) on a fixed, seeded op list, checks every output, and prints
// one JSON result line last on stdout: the end-to-end metrics, or with
// --trace 1 the per-layer metrics. perfbench/run.py builds and invokes it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

#include <sched.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload grid|serve_cold --seed N --seconds S"
               " --trace 0|1 --tmp DIR\n";
  std::exit(2);
}

/// Confines the process, and every thread it starts later, to the first
/// two CPUs it may use: as many as its busy threads (2 workers; or 2 server
/// workers whose 2 clients mostly wait). On a VM, a thread woken on an idle
/// vCPU waits until the hypervisor runs that vCPU again, and on a shared
/// host that wait came and went with the host's load: serve_cold's median
/// latency ranged 2.2-4.9 ms over ten runs on four vCPUs; on two, each
/// hand-off (client, acceptor, worker) mostly lands on a vCPU already running.
void pin_to_two_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t two;
  CPU_ZERO(&two);
  int n = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && n < 2; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &two);
      ++n;
    }
  if (n == 2) sched_setaffinity(0, sizeof two, &two);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = static_cast<unsigned>(std::stoul(value));
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--tmp") args.tmp_dir = value;
    else usage(argv[0]);
  }
  if (argc % 2 == 0 || args.tmp_dir.empty() || args.seconds == 0 ||
      !std::filesystem::is_directory(args.tmp_dir))
    usage(argv[0]);

  pin_to_two_cpus();
  perfbench::Report report;
  try {
    if (args.workload == "grid")
      perfbench::run_grid(args, report);
    else if (args.workload == "serve_cold")
      perfbench::run_serve(args, report);
    else
      usage(argv[0]);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  return report.emit();
}
