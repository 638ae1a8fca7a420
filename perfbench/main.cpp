// memstress_bench: one workload of the memstress benchmark per invocation.
//
//   memstress_bench --workload paper_flow|yield_study|serve_mix|fleet
//                   [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//                   [--trace-out PATH]
//   memstress_bench --check-logic
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics from a traced pass (and never an end-to-end
// number). The last stdout line is "RESULT {json}"; perfbench/run.py adds
// the reference check and prints the benchmark's final line from it.
// --check-logic runs the scripted checks of serve_mix's rate staircase and
// exits 1 when one fails.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

#ifndef MEMSTRESS_BENCH_BUILD_TYPE
#define MEMSTRESS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MEMSTRESS_BENCH_COMPILER
#define MEMSTRESS_BENCH_COMPILER "unknown"
#endif

using namespace memstress;
using namespace memstress::perfbench;

namespace {

/// Debug and sanitizer builds time something other than what users run.
bool optimized_build() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

/// Every MEMSTRESS_* knob changes execution (threads, solver, chaos,
/// checkpoints, metrics, server limits), so all of them are unset before the
/// library reads any, and the two that the workloads rely on are pinned.
/// Returns the caller's settings that differed from the pinned environment.
std::string pin_environment() {
  const std::vector<std::string> pins = {
      "MEMSTRESS_THREADS=" + std::to_string(kThreads), "MEMSTRESS_SOLVER=batched"};
  std::vector<std::string> settings;
  for (char** entry = environ; *entry; ++entry)
    if (std::strncmp(*entry, "MEMSTRESS_", 10) == 0) settings.emplace_back(*entry);
  std::string overridden;
  for (const std::string& setting : settings) {
    ::unsetenv(setting.substr(0, setting.find('=')).c_str());
    if (std::find(pins.begin(), pins.end(), setting) == pins.end())
      overridden += (overridden.empty() ? "" : ",") + setting;
  }
  for (const std::string& pin : pins) {
    const auto eq = pin.find('=');
    ::setenv(pin.substr(0, eq).c_str(), pin.substr(eq + 1).c_str(), 1);
  }
  return overridden;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "memstress_bench: %s\nusage: memstress_bench --workload "
               "paper_flow|yield_study|serve_mix|fleet [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--trace-out PATH]\n"
               "       memstress_bench --check-logic\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string overridden = pin_environment();
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (*argv[i] == '-' || end == argv[i] || *end != '\0')
        return usage("--seed takes a non-negative integer");
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' ||
          !(options.seconds > 0.0 && options.seconds <= 3600.0))
        return usage("--seconds takes a number in (0, 3600]");
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_path = argv[++i];
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--check-logic") {
      return check_serve_mix_logic() == 0 ? 0 : 1;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!optimized_build()) {
    std::fprintf(stderr, "memstress_bench: refusing to report from a %s build "
                         "(debug or sanitizer); build with -DCMAKE_BUILD_TYPE=Release\n",
                 MEMSTRESS_BENCH_BUILD_TYPE);
    return 2;
  }

  Result result;
  result.info("workload", options.workload);
  result.info("seed", static_cast<double>(options.seed));
  result.info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  result.info("threads", static_cast<double>(kThreads));
  result.info("cpu_model", cpu_model());
  result.info("compiler", MEMSTRESS_BENCH_COMPILER);
  result.info("build_type", MEMSTRESS_BENCH_BUILD_TYPE);
  result.info("traced", options.trace ? 1.0 : 0.0);
  result.info("env_overridden", overridden);
  try {
    if (options.workload == "paper_flow") {
      run_paper_flow(options, result);
    } else if (options.workload == "yield_study") {
      run_yield_study(options, result);
    } else if (options.workload == "serve_mix") {
      run_serve_mix(options, result);
    } else if (options.workload == "fleet") {
      run_fleet(options, result);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "memstress_bench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace && !options.trace_path.empty())
    Tracer::instance().write(options.trace_path);
  std::printf("RESULT %s\n", result.to_json().c_str());
  return 0;
}
