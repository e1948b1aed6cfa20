#ifndef HARMONY_ADAPT_RUNNER_H_
#define HARMONY_ADAPT_RUNNER_H_

#include <vector>

#include "adapt/health.h"
#include "adapt/planner.h"
#include "common/status.h"
#include "core/config.h"
#include "hw/machine.h"
#include "runtime/runtime.h"
#include "serve/wire.h"
#include "trace/trace.h"

namespace harmony::adapt {

/// Knobs for the degradation-aware training loop.
struct AdaptOptions {
  /// Training iterations to drive (each is one Runtime::Execute).
  int iterations = 4;
  /// Master switch: when false the loop is bit-for-bit a plain sequence of
  /// executions — no monitor verdicts are acted on, no events are emitted.
  bool replan = true;
  /// Minimum fractional improvement of the candidate plan's estimated
  /// iteration time over the old plan's (both estimated on the degraded
  /// machine) required to switch. Negative accepts any candidate.
  double replan_margin = 0.03;
  /// Wall-clock bound for the in-process fallback search.
  TimeSec replan_deadline_seconds = 5.0;
  /// Degradation detector knobs.
  HealthOptions health;
  /// When positive, how long (in simulated time) a degradation must persist
  /// before a re-plan fires; converted to whole iterations of hysteresis
  /// using the initial plan's estimated iteration time (the CLI's
  /// --health-window-ms). Zero keeps `health.hysteresis_iterations` as-is.
  TimeSec health_window_seconds = 0;
  /// Primary planner (serve daemon / cluster tier); nullptr, or any failure
  /// it returns, falls back to the bounded in-process search. Borrowed.
  Planner* planner = nullptr;
  /// Observers attached to every execution's trace bus and to the replan
  /// lifecycle events (borrowed; null entries ignored).
  std::vector<trace::TraceSink*> trace_sinks;
  /// Fault schedule, replayed inside every iteration (simulated time
  /// restarts each Execute). After a switchover the persistent degradations
  /// are stripped — their effect lives in the degraded MachineSpec then.
  fault::FaultPlan fault_plan;
};

/// One replan decision, made at an iteration boundary.
struct ReplanDecision {
  int iteration = -1;           // boundary after this iteration index
  bool applied = false;         // false = rejected
  const char* reason = "";      // trigger ("link-degrade"), "below-margin",
                                // "plan-failed" or "invalid-plan"
  Status status;                // the error behind plan-failed/invalid-plan
  double old_estimate_seconds = 0;  // old plan estimated on degraded machine
  double new_estimate_seconds = 0;  // candidate plan's estimate
  const char* planner = "";     // which planner produced the candidate
  // Switchover reconciliation accounting (applied decisions only): orphaned
  // persistent tensors the new program no longer places on a device, and new
  // placements to prefetch, with the modeled drain+fill downtime.
  Bytes orphan_evict_bytes = 0;
  Bytes prefetch_bytes = 0;
  TimeSec switchover_seconds = 0;
};

/// The loop's full story, for tests and the CLI.
struct AdaptResult {
  std::vector<runtime::RunMetrics> iterations;
  std::vector<ReplanDecision> decisions;
  int replans_triggered = 0;
  bool switched = false;
  int switch_iteration = -1;  // first iteration index run under the new plan
  hw::MachineSpec machine;    // final machine descriptor (degraded if switched)
  core::Configuration config; // final configuration
};

/// The degradation-aware training loop (DESIGN.md §14): drives N iterations
/// of one workload, watching the typed trace bus through a HealthMonitor.
/// When sustained degradation crosses the hysteresis bar it synthesizes the
/// degraded MachineSpec, requests a re-plan (primary planner, then the
/// bounded local search), estimates the *old* plan on the degraded machine
/// for an honest comparison, and — if the candidate clears the gain margin —
/// switches over at the iteration boundary: reconciliation accounting
/// (orphan evictions + new prefetches), the persistent faults stripped from
/// the chaos plan (their effect now lives in the machine descriptor), and
/// kReplanTriggered / kReplanApplied / kReplanRejected published to the
/// attached sinks. Everything is deterministic from the fault plan's seed.
class AdaptiveRunner {
 public:
  AdaptiveRunner(hw::MachineSpec machine, serve::ModelSpec model,
                 core::HarmonyMode mode, int minibatch,
                 core::OptimizationFlags flags = {},
                 core::SearchOptions search = {}, AdaptOptions options = {});

  Result<AdaptResult> Run();

 private:
  void EmitReplanEvent(trace::EventKind kind, int iteration, TimeSec at,
                       double estimate_seconds, const char* detail);

  hw::MachineSpec machine_;
  serve::ModelSpec model_spec_;
  core::HarmonyMode mode_;
  int minibatch_;
  core::OptimizationFlags flags_;
  core::SearchOptions search_;
  AdaptOptions options_;
};

}  // namespace harmony::adapt

#endif  // HARMONY_ADAPT_RUNNER_H_
