#ifndef HARMONY_RUNTIME_STEP_H_
#define HARMONY_RUNTIME_STEP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "runtime/tensor.h"

namespace harmony::runtime {

/// One tensor a step must have resident before its compute launches.
struct NeedSpec {
  TensorId id = kInvalidTensorId;
  Bytes bytes = 0;
  /// Fetch strictly from the host copy (checkpoint reads use the message-
  /// passing channel, Sec 4.4); never moves a peer GPU's copy.
  bool from_host = false;
};

/// One tensor a step allocates and writes.
struct ProduceSpec {
  TensorId id = kInvalidTensorId;
  Bytes bytes = 0;
};

/// A step's contiguous slice [begin, end) of one of its program's pools.
struct PoolRange {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// One layer-granularity unit of GPU work, compiled from a Task. The
/// executor issues a step's fetches/allocations, runs its compute on the
/// compute stream, then applies the post actions. Tensors are referenced by
/// the dense TensorId interned at lowering time; the program's catalog maps
/// ids back to structural TensorKeys for diagnostics.
///
/// The step's six lists live in its StepProgram's pools; the step holds only
/// offsets, so copying a program copies no pointers. Read the lists through
/// the program's span accessors (program.needs(step), ...).
struct Step {
  int task = -1;
  TimeSec compute = 0;
  PoolRange needs;         // NeedSpec pool
  PoolRange produces;      // ProduceSpec pool
  PoolRange derefs;        // consumed inputs (refcount--)
  PoolRange copy_to_host;  // checkpoint / master write-back
  PoolRange move_to_host;  // gradient push, optimizer state
  PoolRange mark_dirty;
};

/// CPU-offloaded work (weight updates).
struct CpuStep {
  int task = -1;
  TimeSec duration = 0;
  std::vector<TensorId> host_needs;  // wait until a valid host copy exists
  std::vector<int> wait_tasks;       // task-completion dependencies
  std::vector<TensorId> host_frees;  // consumed host copies (gradients)
};

/// The compiled form of a TaskGraph: per-device GPU step sequences, per-
/// process CPU step sequences, the tensor catalog interning every TensorKey
/// the program touches, and the consumer reference counts (indexed by
/// TensorId) that drive tensor lifetime. Pure data — executable by the
/// simulator-backed Executor, and inspectable by tests without any
/// simulation at all.
///
/// Step lists are flat (CSR): one pool per list kind, each step owning one
/// contiguous range of every pool, in emission order. A program is a
/// handful of vectors however many steps it has.
struct StepProgram {
  std::vector<std::vector<Step>> steps;         // per device, in issue order
  std::vector<std::vector<CpuStep>> cpu_steps;  // per process, in order
  TensorCatalog tensors;
  std::vector<int> ref_counts;                  // per TensorId; consumers
  std::vector<int> task_step_counts;            // steps per task (GPU + CPU)
  /// Master weights + optimizer state permanently resident on host.
  Bytes static_host_bytes = 0;

  // The pools Step's ranges index into.
  std::vector<NeedSpec> need_pool;
  std::vector<ProduceSpec> produce_pool;
  std::vector<TensorId> deref_pool;
  std::vector<TensorId> copy_pool;
  std::vector<TensorId> move_pool;
  std::vector<TensorId> dirty_pool;

  std::span<const NeedSpec> needs(const Step& s) const {
    return Slice(need_pool, s.needs);
  }
  std::span<const ProduceSpec> produces(const Step& s) const {
    return Slice(produce_pool, s.produces);
  }
  std::span<const TensorId> derefs(const Step& s) const {
    return Slice(deref_pool, s.derefs);
  }
  std::span<const TensorId> copy_to_host(const Step& s) const {
    return Slice(copy_pool, s.copy_to_host);
  }
  std::span<const TensorId> move_to_host(const Step& s) const {
    return Slice(move_pool, s.move_to_host);
  }
  std::span<const TensorId> mark_dirty(const Step& s) const {
    return Slice(dirty_pool, s.mark_dirty);
  }

  int64_t num_steps() const {
    int64_t n = 0;
    for (const auto& dev : steps) n += static_cast<int64_t>(dev.size());
    for (const auto& proc : cpu_steps) n += static_cast<int64_t>(proc.size());
    return n;
  }

 private:
  template <typename T>
  static std::span<const T> Slice(const std::vector<T>& pool, PoolRange r) {
    return std::span<const T>(pool.data() + r.begin, r.size());
  }
};

/// Stable one-line renderings for golden tests and deadlock diagnostics.
/// Compute/duration times are intentionally omitted: goldens pin the
/// *structure* (keys, bytes, ordering), not the cost model. The catalog
/// resolves ids back to the key renderings the goldens were recorded with.
std::string DebugString(const Step& step, const StepProgram& program);
std::string DebugString(const CpuStep& step, const StepProgram& program);

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_STEP_H_
