// train_iters: executed training iterations, in process and on one thread,
// round robin over Harmony PP/DP plans and the DP-Swap/GP-Swap baselines of
// four models at minibatch 64. Harmony plans barely evict; the baselines
// demand-page hundreds of GiB per iteration, so the residency layer is busy
// in one half of the mix and idle in the other.

#include <unistd.h>

#include <cmath>
#include <memory>

#include "baselines/baselines.h"
#include "core/estimator.h"
#include "core/packing.h"
#include "core/search.h"
#include "generators.h"
#include "profile/profiler.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"
#include "runtime/step_compiler.h"
#include "serve/wire.h"
#include "trace/metrics_sink.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = harmony::core;
namespace runtime = harmony::runtime;
namespace trace = harmony::trace;

constexpr int kMinibatch = 64;
constexpr int kSetupReps = 5;
constexpr int kBaselineMicrobatchCap = 16;
/// Iteration-time tails are taken per block of this many rounds
/// (MixedLatency): the smallest block whose p90 has ten baseline samples
/// beyond it (seven baseline scenarios per round).
constexpr size_t kTailRounds = 15;

/// ReferenceWork runs this many times after every round, on the loop's own
/// thread: the host's vCPUs differ in speed, and the loop's thread may
/// move between them.
constexpr int kReferencePerRound = 3;
/// A round's slowdown is the median over the reference samples of the
/// rounds up to this many before and after it.
constexpr size_t kSlowdownRadius = 2;

/// A scenario ready to run: its model, task graph and reference metrics.
struct Prepared {
  Scenario scenario;
  const harmony::model::SequentialModel* model = nullptr;
  core::TaskGraph graph;
  runtime::RuntimeOptions options;
  runtime::RunMetrics reference;
};

struct ModelEntry {
  harmony::model::SequentialModel model;
  harmony::profile::ProfileDb profiles;
  harmony::model::Optimizer optimizer;
};

/// Search results of the Harmony scenarios, kept for the layer metrics.
struct Planned {
  const ModelEntry* entry = nullptr;
  core::HarmonyMode mode = core::HarmonyMode::kPipelineParallel;
  core::SearchResult search;
};

struct Setup {
  std::vector<std::unique_ptr<ModelEntry>> models;
  std::vector<Prepared> scenarios;
  std::vector<Planned> planned;
  /// Scenarios whose planning or reference run did not go as expected.
  std::vector<std::string> unexpected;
};

/// The one scenario its scheme cannot fit: GP-Swap keeps every GPT2
/// activation in host memory, which runs out at minibatch 64. Every other
/// scenario must plan and run.
bool ExpectedToOverflow(const Scenario& s) {
  return s.model == "GPT2" && s.scheme == "gp-swap";
}

bool SameMetrics(const runtime::RunMetrics& a, const runtime::RunMetrics& b) {
  return a.iteration_time == b.iteration_time &&
         a.swap_in_bytes == b.swap_in_bytes &&
         a.swap_out_bytes == b.swap_out_bytes && a.p2p_bytes == b.p2p_bytes &&
         a.compute_busy == b.compute_busy &&
         a.peak_device_bytes == b.peak_device_bytes &&
         a.peak_host_bytes == b.peak_host_bytes && a.evictions == b.evictions &&
         a.clean_drops == b.clean_drops &&
         a.faults_injected == b.faults_injected &&
         a.faults_recovered == b.faults_recovered &&
         a.recovery_bytes == b.recovery_bytes;
}

/// Profiles every model, plans each Harmony scenario (Algorithm 1, on
/// `threads` threads: the winner is identical at any thread count), lowers
/// the baselines, and runs every scenario once for its reference metrics.
/// The scenario its scheme cannot fit is dropped; any other failure, or
/// that scenario running after all, is recorded in `unexpected`.
Setup Prepare(const std::vector<Scenario>& order, int threads, SpanLog* spans) {
  const harmony::hw::MachineSpec machine = harmony::hw::MachineSpec::Commodity4Gpu();
  Setup setup;
  std::map<std::string, const ModelEntry*> by_name;
  for (const char* name : {"BERT96", "GPT2", "VGG416", "ResNet1K"}) {
    setup.models.push_back(Timed(spans, "profile", [&]() {
      const auto spec = harmony::serve::ModelSpec::FromName(name).value();
      auto seq = harmony::model::Sequentialize(harmony::serve::BuildModel(spec).value());
      const harmony::profile::Profiler profiler(machine.gpu,
                                                harmony::profile::ProfilerOptions{});
      auto db = profiler.Profile(seq);
      return std::make_unique<ModelEntry>(ModelEntry{
          std::move(seq), std::move(db), harmony::serve::DefaultOptimizer(spec)});
    }));
    by_name[name] = setup.models.back().get();
  }
  const int n = machine.num_gpus;
  for (const Scenario& s : order) {
    const ModelEntry& m = *by_name.at(s.model);
    Prepared p;
    p.scenario = s;
    p.model = &m.model;
    p.options.optimizer = m.optimizer;
    if (s.harmony()) {
      Planned planned;
      planned.entry = &m;
      planned.mode = s.scheme == "harmony-pp" ? core::HarmonyMode::kPipelineParallel
                                              : core::HarmonyMode::kDataParallel;
      core::SearchOptions options;
      options.num_threads = threads;
      auto found = Timed(spans, "search", [&]() {
        return core::SearchConfiguration(m.profiles, machine, planned.mode,
                                         kMinibatch, {}, options);
      });
      if (!found.ok()) {
        setup.unexpected.push_back(s.Name() + ": " + found.status().ToString());
        continue;
      }
      planned.search = found.value();
      p.graph = core::GenerateHarmonyTaskGraph(planned.search.best, planned.mode,
                                               n, kMinibatch, {}, m.profiles);
      setup.planned.push_back(std::move(planned));
    } else if (s.scheme == "dp-swap") {
      const int u = harmony::baselines::MaxFeasibleMicrobatch(
          m.profiles, machine, /*recompute=*/false, n, kBaselineMicrobatchCap);
      p.graph = harmony::baselines::DpSwap(m.profiles, n, kMinibatch, u);
    } else {
      const int u = harmony::baselines::MaxFeasibleMicrobatch(
          m.profiles, machine, /*recompute=*/false, 1, kBaselineMicrobatchCap);
      p.graph = harmony::baselines::GpipeSwap(m.profiles, n, kMinibatch, u, false);
    }
    auto ran = runtime::Runtime(machine, m.model).Execute(p.graph, p.options);
    if (ran.ok() == ExpectedToOverflow(s)) {
      setup.unexpected.push_back(
          s.Name() + (ran.ok() ? ": ran, but should exceed host memory"
                               : ": " + ran.status().ToString()));
    }
    if (!ran.ok()) continue;
    p.reference = ran.value();
    setup.scenarios.push_back(std::move(p));
  }
  return setup;
}

/// Each round's host slowdown: the median of the reference samples of the
/// rounds within kSlowdownRadius of it, over kReferenceNominalUs, and over
/// the share of CPU time not stolen while those rounds ran. `round_end[r]`
/// is when round r's reference samples ended.
std::vector<double> RoundSlowdowns(const std::vector<std::vector<double>>& reference_us,
                                   Clock::time_point start,
                                   const std::vector<Clock::time_point>& round_end,
                                   const StealMeter& steal) {
  std::vector<double> out;
  for (size_t r = 0; r < reference_us.size(); ++r) {
    const size_t lo = r > kSlowdownRadius ? r - kSlowdownRadius : 0;
    const size_t hi = std::min(reference_us.size(), r + kSlowdownRadius + 1);
    std::vector<double> near;
    for (size_t q = lo; q < hi; ++q) {
      near.insert(near.end(), reference_us[q].begin(), reference_us[q].end());
    }
    const double stolen = std::min(
        steal.Fraction(lo == 0 ? start : round_end[lo - 1], round_end[hi - 1]), 0.9);
    out.push_back(Percentile(std::move(near), 50) / kReferenceNominalUs / (1 - stolen));
  }
  return out;
}

/// Counts the events each layer emits on the runtime's trace bus.
class CountingSink : public trace::TraceSink {
 public:
  void OnEvent(const trace::Event& e) override {
    switch (e.kind) {
      case trace::EventKind::kEvict: ++evictions; break;
      case trace::EventKind::kCleanDrop: ++clean_drops; break;
      case trace::EventKind::kAllocStall: ++alloc_stalls; break;
      case trace::EventKind::kFlowBegin: ++flows; break;
      case trace::EventKind::kOpBegin: ++ops; break;
      default: break;
    }
  }
  int64_t evictions = 0, clean_drops = 0, alloc_stalls = 0, flows = 0, ops = 0;
};

struct LoopResult {
  /// Iteration wall time per scenario, divided by the host slowdown around
  /// its round (RoundSlowdowns).
  std::vector<std::vector<double>> scenario_us;
  double iterations = 0, work_s = 0;  // work_s sums scenario_us
  double slowdown = 0;                // over the whole loop
  double wall_us = 0, compile_us = 0, run_us = 0;  // traced totals
  // Counts over the first full round (deterministic).
  CountingSink round_events;
  double round_swap_bytes = 0, round_p2p_bytes = 0;
};

/// Runs scenarios round robin for `seconds`, checking every iteration's
/// RunMetrics against the set-up run. Untraced iterations go through
/// Runtime::Execute; traced ones make the same calls Execute makes, with a
/// span around StepCompiler::Compile and Executor::Run and a CountingSink on
/// the bus.
LoopResult Loop(const Setup& setup, double seconds, bool traced,
                const StealMeter& steal, SpanLog* spans, RunResult* result) {
  const harmony::hw::MachineSpec machine = harmony::hw::MachineSpec::Commodity4Gpu();
  LoopResult out;
  const size_t round = setup.scenarios.size();
  out.scenario_us.resize(round);
  std::vector<std::vector<size_t>> scenario_round(round);
  std::vector<std::vector<double>> reference_us;  // per round
  std::vector<Clock::time_point> round_end;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < end || i < round; ++i) {
    const Prepared& p = setup.scenarios[i % round];
    CountingSink events;
    harmony::Result<runtime::RunMetrics> metrics = harmony::Status::Internal("not run");
    const Clock::time_point t0 = Clock::now();
    if (!traced) {
      metrics = runtime::Runtime(machine, *p.model).Execute(p.graph, p.options);
    } else {
      trace::TraceBus bus;
      trace::MetricsSink sink(p.graph.num_devices);
      bus.AddSink(&sink);
      bus.AddSink(&events);
      runtime::StepCompiler compiler(machine, *p.model, p.graph, p.options.optimizer);
      const Clock::time_point c0 = Clock::now();
      runtime::StepProgram program = compiler.Compile();
      const Clock::time_point c1 = Clock::now();
      runtime::Executor executor(machine, p.graph, p.options, std::move(program),
                                 &bus, &sink);
      const Clock::time_point r0 = Clock::now();
      metrics = executor.Run();
      const Clock::time_point r1 = Clock::now();
      spans->Record("step_compiler.compile", c0, c1);
      spans->Record("executor.run", r0, r1);
      out.compile_us += Micros(c1 - c0);
      out.run_us += Micros(r1 - r0);
    }
    const Clock::time_point t1 = Clock::now();
    const double us = Micros(t1 - t0);
    out.wall_us += us;
    ++result->attempted;
    const bool same = metrics.ok() && SameMetrics(metrics.value(), p.reference);
    if (same) {
      out.scenario_us[i % round].push_back(us);
      scenario_round[i % round].push_back(i / round);
    }
    if ((i + 1) % round == 0) {
      reference_us.emplace_back();
      for (int k = 0; k < kReferencePerRound; ++k) {
        reference_us.back().push_back(ReferenceUs(i + static_cast<size_t>(k)));
      }
      round_end.push_back(Clock::now());
    }
    if (!same) {
      ++result->failed;
      result->Fail(p.scenario.Name() + ": RunMetrics differ from the set-up run");
      continue;
    }
    if (i < round) {
      out.round_events.evictions += events.evictions;
      out.round_events.clean_drops += events.clean_drops;
      out.round_events.alloc_stalls += events.alloc_stalls;
      out.round_events.flows += events.flows;
      out.round_events.ops += events.ops;
      out.round_swap_bytes += static_cast<double>(metrics.value().total_swap());
      for (harmony::Bytes b : metrics.value().p2p_bytes) {
        out.round_p2p_bytes += static_cast<double>(b);
      }
    }
  }
  const std::vector<double> slowdown =
      RoundSlowdowns(reference_us, start, round_end, steal);
  out.slowdown = Percentile(slowdown, 50);
  for (size_t k = 0; k < round; ++k) {
    for (size_t j = 0; j < out.scenario_us[k].size(); ++j) {
      const size_t r = std::min(scenario_round[k][j], slowdown.size() - 1);
      out.scenario_us[k][j] /= slowdown[r];
      out.work_s += out.scenario_us[k][j] / 1e6;
      out.iterations += 1;
    }
  }
  return out;
}

/// Iterations per second of normalized iteration time.
double Rate(const LoopResult& loop) { return Ratio(loop.iterations, loop.work_s); }

}  // namespace

RunResult RunTrainIters(const Options& options) {
  RunResult result;
  const StealMeter steal;
  const std::vector<Scenario> order = TrainScenarios(options.seed);
  std::vector<double> setup_s;
  Setup setup;
  SpanLog setup_spans;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanLog spans;
    // Set-up's own host slowdown: reference samples just before and after.
    std::vector<double> reference_us;
    for (int k = 0; k < kReferencePerRound; ++k) reference_us.push_back(ReferenceUs(k));
    const Clock::time_point t0 = Clock::now();
    Setup s = Prepare(order, options.nproc, &spans);
    const Clock::time_point t1 = Clock::now();
    for (int k = 0; k < kReferencePerRound; ++k) reference_us.push_back(ReferenceUs(k));
    const double stolen = std::min(steal.Fraction(t0, t1), 0.9);
    setup_s.push_back(Seconds(t1 - t0) * (1 - stolen) * kReferenceNominalUs /
                      Percentile(reference_us, 50));
    // Each scenario's planning and reference run is one checked operation.
    result.attempted += static_cast<int64_t>(order.size());
    result.failed += static_cast<int64_t>(s.unexpected.size());
    for (const std::string& e : s.unexpected) result.Fail(e);
    if (rep > 0) {
      bool same = s.scenarios.size() == setup.scenarios.size();
      for (size_t i = 0; same && i < s.scenarios.size(); ++i) {
        same = SameMetrics(s.scenarios[i].reference, setup.scenarios[i].reference);
      }
      if (!same) result.Fail("set-up runs differ between repetitions");
    }
    setup = std::move(s);
    setup_spans = std::move(spans);
  }
  if (setup.scenarios.size() + 1 != order.size()) {
    result.Fail(std::to_string(setup.scenarios.size()) + " of " +
                std::to_string(order.size()) +
                " scenarios ran; expected all but GPT2/gp-swap");
  }
  if (setup.scenarios.empty()) return result;

  SpanLog spans;
  const LoopResult base = Loop(setup, options.seconds, false, steal, &spans, &result);
  double harmony_log = 0;
  int harmony_n = 0;
  for (const Prepared& p : setup.scenarios) {
    if (!p.scenario.harmony()) continue;
    harmony_log += std::log(p.reference.Throughput(kMinibatch));
    ++harmony_n;
  }
  const double iters_per_s = Rate(base);
  const double samples_per_s = std::exp(harmony_log / std::max(harmony_n, 1));
  // Iteration times of the Harmony plans and of the swap baselines, each
  // over its scenarios (MixedLatency).
  std::vector<std::vector<double>> harmony_us, baseline_us;
  for (size_t k = 0; k < setup.scenarios.size(); ++k) {
    (setup.scenarios[k].scenario.harmony() ? harmony_us : baseline_us)
        .push_back(base.scenario_us[k]);
  }
  const MixLatency harmony = MixedLatency(harmony_us, 90, kTailRounds);
  const MixLatency baseline = MixedLatency(baseline_us, 90, kTailRounds);
  for (auto [mix, what] : {std::pair{&harmony, "Harmony iterations"},
                           std::pair{&baseline, "baseline iterations"}}) {
    if (!PercentileSupported(mix->block_samples, 90) || mix->blocks < 3) {
      result.Fail(std::string("too few samples for the p90 of ") + what);
    }
  }
  const double peak_rss = PeakRssMb(::getpid());
  result.Named("sim_iters_per_s", iters_per_s, "1/s");
  result.Named("sim_samples_per_s", samples_per_s, "samples/s");
  result.Named("setup_s", Percentile(setup_s, 50), "s");
  result.Named("peak_rss_mb", peak_rss, "MB");
  result.Named("scenarios", static_cast<double>(setup.scenarios.size()), "count");
  result.Named("harmony_iter_p50_us", harmony.typical, "us");
  result.Named("harmony_iter_p90_us", harmony.tail, "us");
  result.Named("baseline_iter_p50_us", baseline.typical, "us");
  result.Named("baseline_iter_p90_us", baseline.tail, "us");
  result.Named("host_slowdown", base.slowdown, "ratio");

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = Percentile(setup_s, 50);
    e2e.peak_rss_mb = peak_rss;
    e2e.ops_per_s = iters_per_s;
    e2e.lat_p50_us = harmony.typical;
    e2e.lat_p90_us = harmony.tail;
    e2e.plan_samples_per_s = samples_per_s;
    EmitEndToEnd(e2e, &result);
    return result;
  }

  const LoopResult traced = Loop(setup, options.seconds, true, steal, &spans, &result);
  const double traced_rate = Rate(traced);

  // Layer replays on each Harmony winner, off the clock.
  const harmony::hw::MachineSpec machine = harmony::hw::MachineSpec::Commodity4Gpu();
  double explored = 0, feasible = 0, search_s = 0;
  for (const Planned& pl : setup.planned) {
    explored += pl.search.configs_explored;
    feasible += pl.search.configs_feasible;
    search_s += pl.search.search_wall_seconds;
    const core::Configuration& config = pl.search.best;
    core::PackingOptions packing;
    packing.capacity = static_cast<harmony::Bytes>(
        static_cast<double>(machine.MinUsableMemory()) *
        core::SearchOptions{}.capacity_fraction);
    packing.min_packs = static_cast<int>(config.bwd_packs.size());
    Timed(&spans, "packing.pack", [&]() {
      auto bwd = core::BackwardPacks(config.u_bwd, pl.entry->profiles, packing);
      core::PackingOptions fwd = packing;
      fwd.min_packs = std::max<int>(1, static_cast<int>(config.fwd_packs.size()));
      if (bwd.ok()) {
        (void)core::ForwardPacks(config.u_fwd, bwd.value(), pl.entry->profiles, fwd);
      }
    });
    const auto graph = Timed(&spans, "task_graph.generate", [&]() {
      return core::GenerateHarmonyTaskGraph(config, pl.mode, machine.num_gpus,
                                            kMinibatch, {}, pl.entry->profiles);
    });
    const auto estimate = Timed(&spans, "estimator.estimate", [&]() {
      return core::RuntimeEstimator(pl.entry->profiles, machine).EstimateIteration(graph);
    });
    if (estimate.iteration_time != pl.search.best_estimate.iteration_time) {
      result.Fail("replayed estimate differs from the search's");
    }
  }
  spans.Merge(setup_spans);
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  std::map<std::string, double> layer = {
      {"profile.profile_ms", spans.P50("profile") / 1e3},
      {"search.search_ms_p50", spans.P50("search") / 1e3},
      {"search.configs_explored", explored},
      {"search.feasible_ratio", Ratio(feasible, explored)},
      {"search.us_per_candidate", Ratio(search_s * 1e6, explored)},
      {"packing.pack_us", spans.P50("packing.pack")},
      {"task_graph.generate_us", spans.P50("task_graph.generate")},
      {"estimator.estimate_us", spans.P50("estimator.estimate")},
      {"step_compiler.compile_ms", spans.P50("step_compiler.compile") / 1e3},
      {"executor.run_ms", spans.P50("executor.run") / 1e3},
      {"residency.evictions", static_cast<double>(traced.round_events.evictions)},
      {"residency.clean_drops", static_cast<double>(traced.round_events.clean_drops)},
      {"residency.alloc_stalls", static_cast<double>(traced.round_events.alloc_stalls)},
      {"runtime.swap_gib", traced.round_swap_bytes / kGiB},
      {"runtime.p2p_gib", traced.round_p2p_bytes / kGiB},
      {"network.flows", static_cast<double>(traced.round_events.flows)},
      {"sim.ops", static_cast<double>(traced.round_events.ops)},
      {"trace.overhead_frac", Ratio(iters_per_s - traced_rate, iters_per_s)},
      {"trace.unattributed_frac",
       UnattributedFrac(traced.wall_us, {traced.compile_us, traced.run_us})},
  };
  EmitPerLayer(layer, &result);
  result.spans = spans.Summary();
  return result;
}

}  // namespace perfbench
