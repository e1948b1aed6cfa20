// The metric lists of BENCHMARK.json and the emitters that fill them. The
// harness test checks that these tables and BENCHMARK.json agree.

#include <set>

#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"lat_p50_us", "us"},
      {"lat_p90_us", "us"},
      {"plan_samples_per_s", "samples/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"server.memo_hit_ratio", "ratio"},
      {"server.memo_path_p50_us", "us"},
      {"server.frames_per_wakeup", "frames"},
      {"server.ping_rtt_us", "us"},
      {"wire.decode_us", "us"},
      {"wire.fingerprint_us", "us"},
      {"plan_cache.lookup_us", "us"},
      {"wire.encode_us", "us"},
      {"plan_service.service_p50_us", "us"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.evictions", "count"},
      {"plan_service.queue_wait_ms_p50", "ms"},
      {"plan_service.rejected", "count"},
      {"profile.profile_ms", "ms"},
      {"search.search_ms_p50", "ms"},
      {"search.configs_explored", "count"},
      {"search.feasible_ratio", "ratio"},
      {"search.us_per_candidate", "us"},
      {"packing.pack_us", "us"},
      {"task_graph.generate_us", "us"},
      {"estimator.estimate_us", "us"},
      {"cluster.searches_per_new_key", "ratio"},
      {"cluster.peer_fill_ratio", "ratio"},
      {"cluster.peer_fill_errors", "count"},
      {"disk_store.puts", "count"},
      {"disk_store.put_us", "us"},
      {"cluster.served_from_disk_frac", "ratio"},
      {"step_compiler.compile_ms", "ms"},
      {"executor.run_ms", "ms"},
      {"residency.evictions", "count"},
      {"residency.clean_drops", "count"},
      {"residency.alloc_stalls", "count"},
      {"runtime.swap_gib", "GiB"},
      {"runtime.p2p_gib", "GiB"},
      {"network.flows", "count"},
      {"sim.ops", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unattributed_frac", "ratio"},
  };
  return specs;
}

void EmitEndToEnd(const EndToEnd& e, RunResult* result) {
  const double values[] = {e.setup_s,    e.peak_rss_mb, e.ops_per_s,
                           e.lat_p50_us, e.lat_p90_us,  e.plan_samples_per_s};
  const auto& specs = EndToEndSpecs();
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!(values[i] > 0)) {
      result->Fail(std::string("end-to-end metric ") + specs[i].name +
                   " is not positive");
    }
    result->Add(specs[i].name, values[i], specs[i].unit);
  }
}

void EmitPerLayer(const std::map<std::string, double>& values,
                  RunResult* result) {
  std::set<std::string> known;
  for (const MetricSpec& spec : PerLayerSpecs()) {
    known.insert(spec.name);
    result->Add(spec.name, Counter(values, spec.name), spec.unit);
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) result->Fail("unknown per-layer metric " + name);
  }
}

}  // namespace perfbench
