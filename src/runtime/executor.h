#ifndef HARMONY_RUNTIME_EXECUTOR_H_
#define HARMONY_RUNTIME_EXECUTOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/task_graph.h"
#include "fault/chaos.h"
#include "hw/machine.h"
#include "runtime/residency.h"
#include "runtime/runtime.h"
#include "runtime/step.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/stream.h"
#include "trace/metrics_sink.h"
#include "trace/trace.h"

namespace harmony::runtime {

/// The driving layer of the execution pipeline: issues a compiled StepProgram
/// onto the discrete-event simulator. Owns the engine, the five CUDA-like
/// streams per GPU, the issue windows (double-buffered prefetch), and the
/// task-completion bookkeeping; delegates every residency decision to the
/// Residency layer. All byte/time accounting flows through the trace bus into
/// MetricsSink, from which the final RunMetrics is folded.
class Executor {
 public:
  Executor(const hw::MachineSpec& machine, const core::TaskGraph& graph,
           const RuntimeOptions& options, StepProgram program,
           trace::TraceBus* bus, trace::MetricsSink* metrics);

  /// Runs the program to completion and folds the metrics. Fails with
  /// OutOfMemory when a working set cannot fit, or Internal on a schedule
  /// deadlock — both diagnose the stuck steps and the tensors they wait on.
  Result<RunMetrics> Run();

 private:
  /// One issued step's join: counts the commits and arrivals its needs and
  /// produces report (plus one sentinel each). The last commit frees the
  /// device's issue slot; the last arrival fires `ready`, which releases the
  /// step's compute op. Recycled once `ready` has fired, so the pool holds
  /// only the steps whose inputs are still in flight.
  struct Join final : StepJoin {
    void Committed() override;
    void Arrived() override;

    Executor* executor = nullptr;
    int device = 0;
    int commits_left = 0;
    int arrivals_left = 0;
    sim::Condition ready;
    Join* next_free = nullptr;
  };

  Join* NewJoin(int d, int units);
  void Fail(Status status);
  void TryIssue(int d);
  void IssueStep(int d, int step_idx);
  void FinishStep(int d, int step_idx);
  void AdvanceCpu(int d);
  void OnTaskStepDone(int task);
  void WhenTaskComplete(int task, std::function<void()> fn);

  bool AllWorkDone() const;
  /// Monotone progress measure for the watchdog: completed GPU steps + CPU
  /// updates + transfer-stream ops. Any forward motion bumps it.
  int64_t ProgressCounter() const;
  /// Polls the cancel token; fails the run (Cancelled / DeadlineExceeded)
  /// and returns true when it has tripped.
  bool PollCancel();
  /// Recurring no-progress check; escalates to cancel + Internal with
  /// DescribeStuck() diagnostics, and stops re-arming once the run is over.
  void WatchdogTick();

  /// Names every stuck GPU/CPU step and the tensors or tasks it waits on —
  /// appended to the post-drain failure statuses.
  std::string DescribeStuck();

  const hw::MachineSpec& machine_;
  const core::TaskGraph& graph_;
  RuntimeOptions options_;
  StepProgram program_;
  trace::TraceBus* bus_;
  trace::MetricsSink* metrics_;

  sim::Engine engine_;
  sim::Interconnect net_;
  sim::FlowNetwork flows_;

  std::vector<std::unique_ptr<sim::Stream>> compute_, swapin_, swapout_,
      p2pin_, cpu_;
  std::unique_ptr<Residency> residency_;
  // Deque for pointer stability: residency records hold Join pointers.
  std::deque<Join> joins_;
  Join* free_joins_ = nullptr;

  // Driving state.
  std::vector<size_t> issue_next_, steps_done_;
  std::vector<bool> issue_busy_;
  std::vector<size_t> cpu_next_;
  /// How far device d's current CPU step has been found ready: its first
  /// `wait` wait_tasks are complete and its first `host` host_needs have a
  /// final host copy. Reset when the step completes.
  struct CpuCursor {
    size_t wait = 0;
    size_t host = 0;
  };
  std::vector<CpuCursor> cpu_cursor_;
  int issue_window_ = 2;

  std::vector<int> task_steps_remaining_;
  std::vector<std::vector<std::function<void()>>> task_waiters_;

  // Chaos & liveness (null / disarmed unless the options enable them).
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::ChaosDriver> chaos_;
  TimeSec watchdog_interval_ = 0;   // resolved from options; <= 0 disarmed
  int64_t watchdog_progress_ = -1;  // ProgressCounter() at the last tick
  uint32_t cancel_poll_ = 0;

  bool failed_ = false;
  Status failure_;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_EXECUTOR_H_
