#ifndef HARMONY_RUNTIME_STEP_COMPILER_H_
#define HARMONY_RUNTIME_STEP_COMPILER_H_

#include <vector>

#include "core/task_graph.h"
#include "hw/machine.h"
#include "model/cost_model.h"
#include "model/layer.h"
#include "model/memory.h"
#include "runtime/step.h"

namespace harmony::runtime {

/// Lowers a TaskGraph to a StepProgram: the pure compilation layer of the
/// execution pipeline. Forward/backward/update tasks expand to one step per
/// (microbatch piece, layer) with explicit need/produce tensor keys; CPU-
/// offloaded updates expand to CpuSteps with host-copy and task-completion
/// dependencies. No simulator state is touched — the compiler is a function
/// of (machine, model, graph, optimizer) and is unit-tested without the sim.
class StepCompiler {
 public:
  StepCompiler(const hw::MachineSpec& machine,
               const model::SequentialModel& model,
               const core::TaskGraph& graph,
               model::Optimizer optimizer = model::Optimizer::kAdam);

  /// One-shot lowering. Deterministic: identical inputs yield an identical
  /// program (golden-tested).
  StepProgram Compile();

 private:
  void Precompute();
  void CompileForward(const core::Task& t);
  void CompileBackward(const core::Task& t);
  void CompileGpuUpdate(const core::Task& t);
  void CompileCpuUpdate(const core::Task& t);

  /// Appends a step to device `d`. Its lists start empty at the pools' ends;
  /// the Add* calls below extend the most recently opened step's lists.
  Step& OpenStep(int d, int task, TimeSec compute);
  void AddNeed(Step& s, const NeedSpec& n);
  void AddProduce(Step& s, TensorId id, Bytes bytes);
  void AddDeref(Step& s, TensorId id);
  void AddCopyToHost(Step& s, TensorId id);
  void AddMoveToHost(Step& s, TensorId id);
  void AddMarkDirty(Step& s, TensorId id);
  /// A need the step also consumes (deref on completion).
  void AddConsumed(Step& s, const NeedSpec& n);
  /// The producer pieces of `boundary` overlapping `piece`, as consumed
  /// needs.
  void AddBoundaryInputs(Step& s, int boundary, int replica,
                         const core::MbPiece& piece, bool from_host);
  /// The stored stash pieces of `layer` overlapping `piece`, as consumed
  /// needs (fetched through the host channel when the layer swaps).
  void AddStashInputs(Step& s, int layer, int replica,
                      const core::MbPiece& piece);
  void ComputeRefs();

  Bytes opt_state_bytes(int layer) const {
    return opt_mult_ * model_.layers[layer].spec.param_bytes;
  }

  /// Interns `key` into the program's catalog, returning its dense id.
  TensorId Id(const TensorKey& key) { return program_.tensors.Intern(key); }

  const hw::MachineSpec& machine_;
  const model::SequentialModel& model_;
  const core::TaskGraph& graph_;
  model::CostModel cost_;

  // Piece layouts: [replica][boundary/layer] -> producer pieces.
  std::vector<std::vector<std::vector<core::MbPiece>>> act_layout_;
  std::vector<std::vector<std::vector<core::MbPiece>>> grad_layout_;
  std::vector<std::vector<std::vector<core::MbPiece>>> stash_layout_;

  // One dependency index per Compile(), shared by every CPU update task.
  core::DepResolver deps_;

  // Cached model arrays.
  std::vector<Bytes> boundary_bytes_;  // per-sample, index 0..R
  std::vector<Bytes> stash_bytes_;     // per-sample, per layer
  Bytes opt_mult_ = 2;

  StepProgram program_;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_STEP_COMPILER_H_
