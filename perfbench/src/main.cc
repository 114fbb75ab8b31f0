// duel_perfbench: runs one workload of the query-path benchmark and prints
// its metrics. Usually started through run.py, which builds it first:
//
//   duel_perfbench --workload scan|interactive|remote|serve --seed N
//                  --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The exit code is 0 only when every output was correct.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "src/support/strings.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::cerr << "duel_perfbench: " << why
            << "\nusage: duel_perfbench --workload scan|interactive|remote|serve --seed N"
               " --seconds S --trace 0|1\n";
  return 2;
}

// The benchmark measures the shipped default configuration; these switches
// select the ablation configurations CI runs, so a run under them would be
// measuring something else.
const char* const kAblationSwitches[] = {"DUEL_PLAN_CACHE", "DUEL_CHECK", "DUEL_GOVERNOR"};

// Pins the process, and so every thread it starts later, to the highest CPU
// it may run on; returns that CPU (-1 if pinning failed). On a shared host
// the latency of waking a thread on another core swings by 2-3x from minute
// to minute, which buried the remote and serve figures in noise; on one core
// a hand-off is a plain context switch, and what is left is the program's
// own work. See README.md.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !perfbench::KnownWorkload(args.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (args.seconds <= 0) {
    return Usage("--seconds must be positive");
  }
  for (const char* name : kAblationSwitches) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "duel_perfbench: refusing to run with " << name
                << " set: the benchmark measures the default configuration\n";
      return 3;
    }
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  const int cpu = PinToOneCpu();
  perfbench::Report rep = perfbench::RunWorkload(args);

  std::cout << duel::StrPrintf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d build_type=%s nproc=%u "
      "pinned_cpu=%d engine=state-machine options=default\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, DUEL_PERFBENCH_BUILD_TYPE, nproc, cpu);
  for (const std::string& note : rep.notes) {
    std::cout << note << "\n";
  }
  for (const perfbench::Metric& m : rep.metrics) {
    std::cout << duel::StrPrintf("%-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(rep.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return rep.correct && rep.failed == 0 ? 0 : 1;
}
