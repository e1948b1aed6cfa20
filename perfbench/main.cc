// perfbench: runs one workload of the benchmark and prints its metrics.
//
//   perfbench --workload <warm_zipf|cold_tier|train_iters> --seed <n>
//             --seconds <s> --trace <0|1> --serve-binary <path>
//             --work-dir <dir> [--commit <id>]
//
// run.py builds this binary and harmony_serve and calls it. The last stdout
// line is the result object; the line before it is the full record (host,
// commit, seed, the workload's own metric names, spans).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <utility>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Refuses builds whose timings would mislead: anything but an optimized
/// build without sanitizers.
std::string BuildProblem() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' (need Release or RelWithDebInfo)";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifdef PERFBENCH_CXX_FLAGS
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer build";
  }
#endif
  return "";
}

int Usage() {
  std::cerr << "usage: perfbench --workload <warm_zipf|cold_tier|train_iters>"
               " --seed <n> --seconds <s> --trace <0|1> --serve-binary <path>"
               " --work-dir <dir> [--commit <id>]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--serve-binary") {
      options.serve_binary = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.serve_binary.empty() ||
      options.work_dir.empty() || !(options.seconds > 0)) {
    return Usage();
  }
  if (const std::string problem = BuildProblem(); !problem.empty()) {
    std::cerr << "perfbench: refusing to measure: " << problem << "\n";
    return 3;
  }
  options.nproc = std::max(1, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));

  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "warm_zipf") {
    run = RunWarmZipf;
  } else if (options.workload == "cold_tier") {
    run = RunColdTier;
  } else if (options.workload == "train_iters") {
    run = RunTrainIters;
  } else {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  // The share of wanted CPU time the hypervisor took during the run goes
  // into the record: a difference measured in a high-steal period is suspect.
  const auto before = StealTicks();
  const RunResult result = run(options);
  const auto after = StealTicks();
  const double steal = Ratio(after.first - before.first, after.second - before.second);
  for (const std::string& e : result.errors) {
    std::cerr << "perfbench: " << options.workload << ": " << e << "\n";
  }
  const size_t expected = options.trace ? PerLayerSpecs().size()
                                        : EndToEndSpecs().size();
  if (result.metrics.size() != expected) {
    std::cerr << "perfbench: " << options.workload << " produced no result\n";
    return 1;
  }

  harmony::json::Value host = harmony::json::Value::Object();
  host.Set("nproc", static_cast<int64_t>(options.nproc));
  host.Set("cpu", CpuModel());
  host.Set("compiler", std::string("g++ ") + __VERSION__);
  host.Set("build_type", PERFBENCH_BUILD_TYPE);
  host.Set("steal_frac", steal);
  harmony::json::Value named = harmony::json::Value::Object();
  for (const Metric& m : result.named) {
    harmony::json::Value entry = harmony::json::Value::Object();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    named.Set(m.name, std::move(entry));
  }
  harmony::json::Value ops = harmony::json::Value::Object();
  ops.Set("value", result.attempted);
  ops.Set("unit", "count");
  named.Set("ops_attempted", std::move(ops));
  harmony::json::Value failed = harmony::json::Value::Object();
  failed.Set("value", result.failed);
  failed.Set("unit", "count");
  named.Set("ops_failed", std::move(failed));
  harmony::json::Value record = harmony::json::Value::Object();
  record.Set("workload", options.workload);
  record.Set("seed", static_cast<int64_t>(options.seed));
  record.Set("seconds", options.seconds);
  record.Set("trace", options.trace);
  record.Set("commit", commit);
  record.Set("host", std::move(host));
  record.Set("metrics", std::move(named));
  if (options.trace) record.Set("spans", result.spans);

  for (const auto& [name, entry] : record.Find("metrics")->members()) {
    std::printf("%-28s %16.6g %s\n", name.c_str(), entry.Find("value")->AsDouble(),
                entry.Find("unit")->AsString().c_str());
  }
  harmony::json::Value wrapped = harmony::json::Value::Object();
  wrapped.Set("record", std::move(record));
  std::printf("%s\n%s\n", wrapped.Dump().c_str(), ResultLine(result).c_str());
  return 0;
}
