#ifndef HARMONY_SIM_STREAM_H_
#define HARMONY_SIM_STREAM_H_

#include <deque>
#include <functional>
#include <string>

#include "common/units.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace harmony::sim {

/// An in-order execution queue, analogous to a CUDA stream. Each GPU in the
/// Harmony runtime owns five of these (compute, swap-in, swap-out, p2p-in,
/// p2p-out — Sec 4.4); cross-stream dependencies are expressed with
/// Conditions, analogous to CUDA events.
///
/// An op starts when (a) the op ahead of it in the stream has finished, and
/// (b) its dependency condition (if any) has fired. The op's body receives a
/// completion callback to invoke when its work is done (a compute delay or a
/// FlowNetwork transfer).
///
/// Each op is a record owned by the stream that holds its own completion
/// Condition. Ops complete in push order, so records are recycled FIFO: once
/// an op has fired and its waiters have run, the next Push reuses its record.
/// Record storage is bounded by the ops in flight, not by the ops pushed over
/// the stream's lifetime, and a steady-state Push allocates nothing as long
/// as the body's captures fit std::function's small-object buffer.
class Stream {
 public:
  using Body = std::function<void(std::function<void()> done)>;

  Stream(Engine* engine, std::string name);
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueues an op that waits for `dep` (null: no external dependency) and
  /// for the op ahead of it. Returns the condition fired on the op's
  /// completion. The pointer is valid until the condition has fired: its
  /// record is then recycled by a later Push. Chaining `->OnFire(...)` on
  /// the returned pointer is always safe; a caller that keeps the pointer
  /// must not touch it after it fired.
  Condition* Push(Condition* dep, Body body);

  /// An op whose duration is known at push time (a profiled compute delay),
  /// with a trace label and task id attached to its span events. Build the
  /// label only when the bound bus reports detailed() — it is dead weight
  /// otherwise. busy_time accumulates `duration` itself rather than the end-minus-start
  /// timestamp difference, so the total is invariant under time translation:
  /// injected faults that merely *delay* ops cannot drift busy_time by even
  /// an ulp.
  Condition* PushTimed(Condition* dep, std::string label, int task,
                       TimeSec duration);

  /// Convenience: an op that just occupies the stream for `duration`.
  Condition* PushDelay(Condition* dep, TimeSec duration);

  /// Routes this stream's op begin/end span events to `bus`, attributed to
  /// `device` on `lane` (one chrome-trace row per device x lane).
  void BindTrace(trace::TraceBus* bus, int device, trace::Lane lane);

  /// Fault hook: consulted once per op, after its dependencies fire but
  /// before the op span begins. A positive return delays the op start by that
  /// many simulated seconds (a "stream stall" — the hardware wedging, not the
  /// op running long), so busy_time and the op's span duration stay exactly
  /// what they would be without the stall. Null (the default) costs one
  /// branch per op.
  void SetStallProbe(std::function<TimeSec()> probe) {
    stall_probe_ = std::move(probe);
  }

  /// Total time the stream spent executing op bodies.
  TimeSec busy_time() const { return busy_time_; }
  /// Simulated time the stream's most recent op completed (0 if none). The
  /// executor takes the max across streams as the iteration's end: liveness
  /// timers (watchdog ticks) keep the engine's clock running past the last
  /// real work, so the engine's drain time is not the iteration time.
  TimeSec last_completion() const { return last_completion_; }
  const std::string& name() const { return name_; }
  int64_t ops_completed() const { return ops_completed_; }
  /// Op records ever created (live or recycled): the stream's peak number of
  /// ops in flight, plus fired ops not yet reclaimed by a Push.
  size_t op_records() const { return records_.size(); }

 private:
  struct Op {
    Condition done;
    Body body;           // empty for timed ops
    std::string label;   // empty unless the pusher saw detailed()
    int task = -1;
    int waits = 0;       // unfired among {dep, previous op}
    bool settled = false;  // fired, and its waiters have run
    /// >= 0: charge busy_time exactly this much (PushTimed); negative:
    /// measure end minus start.
    TimeSec exact_duration = -1.0;
    TimeSec start = 0.0;
    Op* next = nullptr;  // the live FIFO, or the free list once recycled
  };

  Condition* PushImpl(Condition* dep, std::string label, int task, Body body,
                      TimeSec exact_duration);
  /// Recycles settled ops from the front of the live FIFO.
  void Reclaim();
  void Start(Op* op);
  void Run(Op* op);
  void Complete(Op* op);

  Engine* engine_;
  std::string name_;
  trace::TraceBus* bus_ = nullptr;
  int trace_device_ = -1;
  trace::Lane trace_lane_ = trace::Lane::kCompute;
  std::function<TimeSec()> stall_probe_;
  // Deque for pointer stability: ops and their conditions are addressed by
  // pointer. Direct storage — one allocation per deque block, not per op.
  std::deque<Op> records_;
  Op* head_ = nullptr;  // oldest live op
  Op* tail_ = nullptr;  // newest live op
  Op* free_ = nullptr;  // recycled records
  Condition* last_done_ = nullptr;  // the newest op's, until reclaimed
  TimeSec busy_time_ = 0.0;
  TimeSec last_completion_ = 0.0;
  int64_t ops_completed_ = 0;
};

}  // namespace harmony::sim

#endif  // HARMONY_SIM_STREAM_H_
