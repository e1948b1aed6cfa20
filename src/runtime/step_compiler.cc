#include "runtime/step_compiler.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"

namespace harmony::runtime {

using core::MbPiece;
using core::Task;
using core::TaskType;

StepCompiler::StepCompiler(const hw::MachineSpec& machine,
                           const model::SequentialModel& model,
                           const core::TaskGraph& graph,
                           model::Optimizer optimizer)
    : machine_(machine), model_(model), graph_(graph), cost_(machine.PlanningGpu()) {
  opt_mult_ = model::OptimizerStateBytesPerParamByte(optimizer);
}

void StepCompiler::Precompute() {
  const int R = model_.num_layers();
  boundary_bytes_.assign(R + 1, 0);
  boundary_bytes_[0] = model_.sample_input_bytes;
  stash_bytes_.assign(R, 0);
  for (int l = 0; l < R; ++l) {
    boundary_bytes_[l + 1] = model_.layers[l].boundary_out_bytes();
    stash_bytes_[l] = model_.layers[l].spec.stash_bytes_per_sample +
                      model_.layers[l].relay_bytes_per_sample;
  }

  program_.static_host_bytes = 0;
  for (const auto& layer : model_.layers) {
    program_.static_host_bytes += layer.spec.param_bytes * (1 + opt_mult_);
  }

  act_layout_.assign(graph_.num_replicas,
                     std::vector<std::vector<MbPiece>>(R + 1));
  grad_layout_.assign(graph_.num_replicas,
                      std::vector<std::vector<MbPiece>>(R + 1));
  stash_layout_.assign(graph_.num_replicas,
                       std::vector<std::vector<MbPiece>>(R));
  // Accumulate raw pieces first, then canonicalize each slot once: the
  // sort-after-every-merge variant re-sorted near-sorted vectors O(tasks)
  // times per boundary and dominated compile time on deep models.
  auto merge = [](std::vector<MbPiece>* dst, const std::vector<MbPiece>& src) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  for (const Task& t : graph_.tasks) {
    if (t.type == TaskType::kForward) {
      for (int b = t.pack.lo + 1; b <= t.pack.hi + 1; ++b) {
        merge(&act_layout_[t.replica][b], t.group);
      }
      // A layer's stash is stored by its forward task unless the policy says
      // the backward rematerializes it (fused packs have no forward task and
      // always rematerialize, so they never reach here).
      for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
        if (graph_.stash_policy.at(l) != core::StashPolicy::kRecompute) {
          merge(&stash_layout_[t.replica][l], t.group);
        }
      }
    } else if (t.type == TaskType::kBackward) {
      grad_layout_[t.replica][t.pack.lo] = t.group;
    }
  }
  auto canonicalize = [](std::vector<std::vector<MbPiece>>& slots) {
    for (std::vector<MbPiece>& dst : slots) {
      std::sort(dst.begin(), dst.end(), [](const MbPiece& a, const MbPiece& b) {
        return a.begin < b.begin;
      });
      dst.erase(std::unique(dst.begin(), dst.end(),
                            [](const MbPiece& a, const MbPiece& b) {
                              return a.begin == b.begin;
                            }),
                dst.end());
    }
  };
  for (auto& per_replica : act_layout_) canonicalize(per_replica);
  for (auto& per_replica : stash_layout_) canonicalize(per_replica);
}

Step& StepCompiler::OpenStep(int d, int task, TimeSec compute) {
  Step& s = program_.steps[d].emplace_back();
  s.task = task;
  s.compute = compute;
  auto at_end = [](const auto& pool) {
    const auto n = static_cast<uint32_t>(pool.size());
    return PoolRange{n, n};
  };
  s.needs = at_end(program_.need_pool);
  s.produces = at_end(program_.produce_pool);
  s.derefs = at_end(program_.deref_pool);
  s.copy_to_host = at_end(program_.copy_pool);
  s.move_to_host = at_end(program_.move_pool);
  s.mark_dirty = at_end(program_.dirty_pool);
  return s;
}

namespace {

/// Appends to the list `r` of the most recently opened step, whose ranges all
/// end at their pools' ends.
template <typename T>
void Append(std::vector<T>* pool, PoolRange* r, const T& value) {
  HARMONY_DCHECK_EQ(r->end, pool->size()) << "appending to a closed step";
  pool->push_back(value);
  ++r->end;
}

}  // namespace

void StepCompiler::AddNeed(Step& s, const NeedSpec& n) {
  Append(&program_.need_pool, &s.needs, n);
}
void StepCompiler::AddProduce(Step& s, TensorId id, Bytes bytes) {
  Append(&program_.produce_pool, &s.produces, ProduceSpec{id, bytes});
}
void StepCompiler::AddDeref(Step& s, TensorId id) {
  Append(&program_.deref_pool, &s.derefs, id);
}
void StepCompiler::AddCopyToHost(Step& s, TensorId id) {
  Append(&program_.copy_pool, &s.copy_to_host, id);
}
void StepCompiler::AddMoveToHost(Step& s, TensorId id) {
  Append(&program_.move_pool, &s.move_to_host, id);
}
void StepCompiler::AddMarkDirty(Step& s, TensorId id) {
  Append(&program_.dirty_pool, &s.mark_dirty, id);
}

void StepCompiler::AddConsumed(Step& s, const NeedSpec& n) {
  AddNeed(s, n);
  AddDeref(s, n.id);
}

void StepCompiler::AddBoundaryInputs(Step& s, int boundary, int replica,
                                     const MbPiece& piece, bool from_host) {
  if (boundary_bytes_[boundary] == 0) return;
  if (boundary == 0 || act_layout_[replica][boundary].empty()) {
    // Data loader (or an unproduced boundary, which AutoCreate rejects):
    // keyed at consumer granularity.
    AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kActivation, boundary,
                                         piece.begin, replica}),
                            static_cast<Bytes>(piece.size) *
                                boundary_bytes_[boundary],
                            from_host});
    return;
  }
  bool any = false;
  for (const MbPiece& p : act_layout_[replica][boundary]) {
    if (!p.Overlaps(piece)) continue;
    AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kActivation, boundary,
                                         p.begin, replica}),
                            static_cast<Bytes>(p.size) *
                                boundary_bytes_[boundary],
                            from_host});
    any = true;
  }
  HARMONY_CHECK(any) << "no producer pieces for boundary " << boundary;
}

void StepCompiler::AddStashInputs(Step& s, int layer, int replica,
                                  const MbPiece& piece) {
  if (stash_bytes_[layer] == 0) return;
  HARMONY_CHECK(!stash_layout_[replica][layer].empty())
      << "backward without recompute needs stash of layer " << layer;
  // Swapped-out stash lives host-side only (the forward's move released the
  // GPU copy); consumers must pull it back through the host channel.
  const bool swapped = graph_.stash_policy.at(layer) == core::StashPolicy::kSwap;
  for (const MbPiece& p : stash_layout_[replica][layer]) {
    if (!p.Overlaps(piece)) continue;
    AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kStash, layer, p.begin,
                                         replica}),
                            static_cast<Bytes>(p.size) * stash_bytes_[layer],
                            swapped});
  }
}

void StepCompiler::CompileForward(const Task& t) {
  const int d = t.device;
  for (const MbPiece& piece : t.group) {
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      Step& s = OpenStep(d, t.id, cost_.FwdTime(model_.layers[l].spec, piece.size));
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        AddNeed(s, NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
      }
      if (l == t.pack.lo) {
        AddBoundaryInputs(s, l, t.replica, piece, /*from_host=*/false);
      } else if (boundary_bytes_[l] > 0) {
        AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kActivation, l,
                                             piece.begin, t.replica}),
                                static_cast<Bytes>(piece.size) * boundary_bytes_[l]});
      }
      if (boundary_bytes_[l + 1] > 0) {
        const TensorId out = Id(
            TensorKey{TensorKind::kActivation, l + 1, piece.begin, t.replica});
        AddProduce(s, out, static_cast<Bytes>(piece.size) * boundary_bytes_[l + 1]);
        if (std::find(t.checkpoint_boundaries.begin(),
                      t.checkpoint_boundaries.end(),
                      l + 1) != t.checkpoint_boundaries.end()) {
          AddCopyToHost(s, out);
        }
      }
      const core::StashPolicy pol = graph_.stash_policy.at(l);
      if (pol != core::StashPolicy::kRecompute && stash_bytes_[l] > 0) {
        const TensorId st =
            Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica});
        AddProduce(s, st, static_cast<Bytes>(piece.size) * stash_bytes_[l]);
        if (pol == core::StashPolicy::kSwap) {
          // vDNN-style offload: release the GPU copy as soon as the move
          // lands; the backward fetches it back through the host channel.
          AddMoveToHost(s, st);
        }
      }
    }
  }
}

void StepCompiler::CompileBackward(const Task& t) {
  const int d = t.device;
  const int R = model_.num_layers();
  // Per-layer rematerialization: a fused jit-compute task re-runs its whole
  // pack; otherwise only the layers the residency policy marked kRecompute.
  auto remat_layer = [&](int l) {
    return t.fused_forward ||
           graph_.stash_policy.at(l) == core::StashPolicy::kRecompute;
  };
  const bool push_grads =
      graph_.flags.cpu_optimizer || graph_.grad_reduce_via_host;

  bool first_piece = true;
  for (const MbPiece& piece : t.group) {
    // Rematerialization chain (or the fused jit-compute forward): re-run the
    // forward of every remat layer, feeding each from the stash below it —
    // remat-produced (this piece's granularity) or stored (forward-piece
    // granularity) — and the pack input (checkpoint) at the pack start.
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      if (!remat_layer(l)) continue;
      Step& s = OpenStep(d, t.id, cost_.FwdTime(model_.layers[l].spec, piece.size));
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        AddNeed(s, NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
      }
      if (l == t.pack.lo) {
        // Checkpoint reads use the message-passing channel.
        AddBoundaryInputs(s, l, t.replica, piece, t.reads_checkpoint);
      } else if (remat_layer(l - 1)) {
        if (stash_bytes_[l - 1] > 0) {
          AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kStash, l - 1,
                                               piece.begin, t.replica}),
                                  static_cast<Bytes>(piece.size) *
                                      stash_bytes_[l - 1]});
        }
      } else {
        // Mixed table: the remat chain restarts above a stored layer.
        AddStashInputs(s, l - 1, t.replica, piece);
      }
      if (stash_bytes_[l] > 0) {
        AddProduce(s, Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica}),
                   static_cast<Bytes>(piece.size) * stash_bytes_[l]);
      }
    }
    for (int l = t.pack.hi; l >= t.pack.lo; --l) {
      Step& s = OpenStep(d, t.id, cost_.BwdTime(model_.layers[l].spec, piece.size));
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        AddNeed(s, NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
        const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, t.replica});
        if (first_piece) {
          AddProduce(s, g, params);
        } else {
          AddNeed(s, NeedSpec{g, params});
        }
        AddMarkDirty(s, g);
      }
      // Stashed activations of this layer (rematerialized or fetched).
      if (remat_layer(l)) {
        if (stash_bytes_[l] > 0) {
          AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kStash, l,
                                               piece.begin, t.replica}),
                                  static_cast<Bytes>(piece.size) * stash_bytes_[l]});
        }
      } else {
        AddStashInputs(s, l, t.replica, piece);
      }
      // Incoming gradient dA(l+1).
      if (l == t.pack.hi) {
        if (t.pack.hi + 1 <= R - 1 && boundary_bytes_[l + 1] > 0) {
          for (const MbPiece& p : grad_layout_[t.replica][l + 1]) {
            if (!p.Overlaps(piece)) continue;
            AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kGradAct, l + 1,
                                                 p.begin, t.replica}),
                                    static_cast<Bytes>(p.size) *
                                        boundary_bytes_[l + 1]});
          }
        }
      } else if (boundary_bytes_[l + 1] > 0) {
        AddConsumed(s, NeedSpec{Id(TensorKey{TensorKind::kGradAct, l + 1,
                                             piece.begin, t.replica}),
                                static_cast<Bytes>(piece.size) *
                                    boundary_bytes_[l + 1]});
      }
      // Outgoing gradient dA(l) (none for the model input).
      if (l > 0 && boundary_bytes_[l] > 0) {
        AddProduce(s, Id(TensorKey{TensorKind::kGradAct, l, piece.begin, t.replica}),
                   static_cast<Bytes>(piece.size) * boundary_bytes_[l]);
      }
    }
    first_piece = false;
  }
  // After the group completes: push accumulated gradients to host when the
  // update runs on CPU or gradients reduce across replicas. The device's
  // last step is the most recently opened one, so its list can still grow.
  if (push_grads && !program_.steps[d].empty()) {
    Step& last = program_.steps[d].back();
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      if (model_.layers[l].spec.param_bytes > 0) {
        AddMoveToHost(last, Id(TensorKey{TensorKind::kGrad, l, -1, t.replica}));
      }
    }
  }
}

void StepCompiler::CompileGpuUpdate(const Task& t) {
  const int d = t.device;
  const int replica = std::max(t.replica, 0);
  bool any = false;
  // One step per layer: an update of a pack larger than GPU memory must
  // stream layer by layer, exactly like forward/backward execution.
  for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
    const Bytes params = model_.layers[l].spec.param_bytes;
    if (params == 0) continue;
    Step& s = OpenStep(d, t.id, cost_.GpuUpdateTime(model_.layers[l].spec));
    const TensorId w = Id(TensorKey{TensorKind::kWeight, l, -1, d});
    const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, replica});
    const TensorId o = Id(TensorKey{TensorKind::kOptState, l, -1, d});
    AddNeed(s, NeedSpec{w, params});
    AddNeed(s, NeedSpec{g, params});
    AddNeed(s, NeedSpec{o, opt_state_bytes(l)});
    AddMarkDirty(s, w);
    AddMarkDirty(s, o);
    AddCopyToHost(s, w);  // master write-back; cached copy stays
    AddMoveToHost(s, o);  // persists on host for the next iteration
    AddDeref(s, g);
    any = true;
  }
  if (!any) {
    // Pack with no parameters at all: still emit an empty step so the task
    // completes and dependents unblock.
    OpenStep(d, t.id, 0);
  }
}

void StepCompiler::CompileCpuUpdate(const Task& t) {
  CpuStep s;
  s.task = t.id;
  std::vector<int> producers;
  deps_.BackwardTasksForPack(t.pack, t.replica, &producers);
  std::set<int> replicas;
  for (int pid : producers) replicas.insert(graph_.task(pid).replica);
  const int nrep = std::max<int>(1, replicas.size());
  for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
    const Bytes params = model_.layers[l].spec.param_bytes;
    if (params == 0) continue;
    s.duration += static_cast<double>(params) * (2.0 + nrep) /
                  machine_.cpu_update_bw;
    for (int r : replicas) {
      const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, r});
      s.host_needs.push_back(g);
      s.host_frees.push_back(g);
    }
  }
  // Gradients are only final once their backward tasks complete (an eviction
  // can land a partial gradient on host earlier).
  s.wait_tasks.insert(s.wait_tasks.end(), producers.begin(), producers.end());
  if (!graph_.flags.jit_update) {
    for (int r = 0; r < graph_.num_replicas; ++r) {
      if (t.replica >= 0 && r != t.replica) continue;
      const auto all = deps_.AllBackwardTasks(r);
      s.wait_tasks.insert(s.wait_tasks.end(), all.begin(), all.end());
    }
  }
  program_.cpu_steps[t.device].push_back(std::move(s));
}

void StepCompiler::ComputeRefs() {
  program_.ref_counts.assign(program_.tensors.size(), 0);
  for (const TensorId id : program_.deref_pool) ++program_.ref_counts[id];
}

StepProgram StepCompiler::Compile() {
  Precompute();
  deps_.Rebuild(graph_);
  program_.steps.assign(graph_.num_devices, {});
  program_.cpu_steps.assign(graph_.num_devices, {});
  for (int d = 0; d < graph_.num_devices; ++d) {
    for (int id : graph_.device_order[d]) {
      const Task& t = graph_.task(id);
      switch (t.type) {
        case TaskType::kForward: CompileForward(t); break;
        case TaskType::kBackward: CompileBackward(t); break;
        case TaskType::kUpdate: CompileGpuUpdate(t); break;
      }
    }
    if (static_cast<size_t>(d) < graph_.cpu_order.size()) {
      for (int id : graph_.cpu_order[d]) CompileCpuUpdate(graph_.task(id));
    }
  }
  ComputeRefs();

  program_.task_step_counts.assign(graph_.num_tasks(), 0);
  for (const auto& dev : program_.steps) {
    for (const Step& s : dev) ++program_.task_step_counts[s.task];
  }
  for (const auto& proc : program_.cpu_steps) {
    for (const CpuStep& s : proc) ++program_.task_step_counts[s.task];
  }
  return std::move(program_);
}

// ---------------------------------------------------------------------------
// Debug renderings
// ---------------------------------------------------------------------------

namespace {

void AppendKeys(std::string* out, const char* tag,
                std::span<const TensorId> ids, const TensorCatalog& tensors) {
  if (ids.empty()) return;
  *out += " ";
  *out += tag;
  *out += "=[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i) *out += " ";
    *out += tensors.key(ids[i]).ToString();
  }
  *out += "]";
}

}  // namespace

std::string DebugString(const Step& s, const StepProgram& program) {
  const TensorCatalog& tensors = program.tensors;
  std::string out = "t" + std::to_string(s.task);
  out += " needs=[";
  const std::span<const NeedSpec> needs = program.needs(s);
  for (size_t i = 0; i < needs.size(); ++i) {
    if (i) out += " ";
    out += tensors.key(needs[i].id).ToString() + ":" +
           std::to_string(needs[i].bytes);
    if (needs[i].from_host) out += "@host";
  }
  out += "] produces=[";
  const std::span<const ProduceSpec> produces = program.produces(s);
  for (size_t i = 0; i < produces.size(); ++i) {
    if (i) out += " ";
    out += tensors.key(produces[i].id).ToString() + ":" +
           std::to_string(produces[i].bytes);
  }
  out += "]";
  AppendKeys(&out, "derefs", program.derefs(s), tensors);
  AppendKeys(&out, "copy", program.copy_to_host(s), tensors);
  AppendKeys(&out, "move", program.move_to_host(s), tensors);
  AppendKeys(&out, "dirty", program.mark_dirty(s), tensors);
  return out;
}

std::string DebugString(const CpuStep& s, const StepProgram& program) {
  const TensorCatalog& tensors = program.tensors;
  std::string out = "t" + std::to_string(s.task) + " cpu";
  AppendKeys(&out, "host_needs", s.host_needs, tensors);
  AppendKeys(&out, "host_frees", s.host_frees, tensors);
  if (!s.wait_tasks.empty()) {
    out += " waits=[";
    for (size_t i = 0; i < s.wait_tasks.size(); ++i) {
      if (i) out += " ";
      out += "t" + std::to_string(s.wait_tasks[i]);
    }
    out += "]";
  }
  return out;
}

}  // namespace harmony::runtime
