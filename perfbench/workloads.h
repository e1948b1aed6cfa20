#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The harmony_serve binary built next to this benchmark.
  std::string serve_binary;
  /// Where per-run directories go (inside the checkout's build dir).
  std::string work_dir;
  /// Thread and connection budget of the benchmark process.
  int nproc = 1;
};

RunResult RunWarmZipf(const Options& options);
RunResult RunColdTier(const Options& options);
RunResult RunTrainIters(const Options& options);

/// The end-to-end metrics every workload reports. README.md maps each one
/// to the workload-level quantity it carries (cold_p50_ms, sim_iters_per_s, ...).
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double ops_per_s = 0;
  double lat_p50_us = 0;
  double lat_p90_us = 0;
  double plan_samples_per_s = 0;
};
void EmitEndToEnd(const EndToEnd& e2e, RunResult* result);

/// Appends every per-layer metric of BENCHMARK.json, in its order, taking
/// values from `values`; a layer the workload never exercised reports 0.
/// A key of `values` that is not a per-layer metric is a benchmark bug and
/// fails the run.
void EmitPerLayer(const std::map<std::string, double>& values,
                  RunResult* result);

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric, in BENCHMARK.json order.
const std::vector<MetricSpec>& EndToEndSpecs();
/// Every per-layer metric, in BENCHMARK.json order.
const std::vector<MetricSpec>& PerLayerSpecs();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
