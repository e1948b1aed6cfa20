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

std::vector<NeedSpec> StepCompiler::BoundaryInputKeys(int boundary, int replica,
                                                      const MbPiece& piece) {
  std::vector<NeedSpec> out;
  if (boundary_bytes_[boundary] == 0) return out;
  if (boundary == 0 || act_layout_[replica][boundary].empty()) {
    // Data loader (or an unproduced boundary, which AutoCreate rejects):
    // keyed at consumer granularity.
    out.push_back(NeedSpec{
        Id(TensorKey{TensorKind::kActivation, boundary, piece.begin, replica}),
        static_cast<Bytes>(piece.size) * boundary_bytes_[boundary]});
    return out;
  }
  for (const MbPiece& p : act_layout_[replica][boundary]) {
    if (!p.Overlaps(piece)) continue;
    out.push_back(NeedSpec{
        Id(TensorKey{TensorKind::kActivation, boundary, p.begin, replica}),
        static_cast<Bytes>(p.size) * boundary_bytes_[boundary]});
  }
  HARMONY_CHECK(!out.empty()) << "no producer pieces for boundary " << boundary;
  return out;
}

std::vector<NeedSpec> StepCompiler::StashKeys(int layer, int replica,
                                              const MbPiece& piece) {
  std::vector<NeedSpec> out;
  if (stash_bytes_[layer] == 0) return out;
  HARMONY_CHECK(!stash_layout_[replica][layer].empty())
      << "backward without recompute needs stash of layer " << layer;
  // Swapped-out stash lives host-side only (the forward's move released the
  // GPU copy); consumers must pull it back through the host channel.
  const bool swapped = graph_.stash_policy.at(layer) == core::StashPolicy::kSwap;
  for (const MbPiece& p : stash_layout_[replica][layer]) {
    if (!p.Overlaps(piece)) continue;
    NeedSpec n{Id(TensorKey{TensorKind::kStash, layer, p.begin, replica}),
               static_cast<Bytes>(p.size) * stash_bytes_[layer]};
    n.from_host = swapped;
    out.push_back(n);
  }
  return out;
}

void StepCompiler::CompileForward(const Task& t) {
  const int d = t.device;
  for (const MbPiece& piece : t.group) {
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      Step s;
      s.task = t.id;
      s.compute = cost_.FwdTime(model_.layers[l].spec, piece.size);
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        s.needs.push_back(
            NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
      }
      if (l == t.pack.lo) {
        for (const NeedSpec& in : BoundaryInputKeys(l, t.replica, piece)) {
          s.needs.push_back(in);
          s.derefs.push_back(in.id);
        }
      } else if (boundary_bytes_[l] > 0) {
        const TensorId in =
            Id(TensorKey{TensorKind::kActivation, l, piece.begin, t.replica});
        s.needs.push_back(
            NeedSpec{in, static_cast<Bytes>(piece.size) * boundary_bytes_[l]});
        s.derefs.push_back(in);
      }
      if (boundary_bytes_[l + 1] > 0) {
        const TensorId out = Id(
            TensorKey{TensorKind::kActivation, l + 1, piece.begin, t.replica});
        s.produces.push_back(ProduceSpec{
            out, static_cast<Bytes>(piece.size) * boundary_bytes_[l + 1]});
        if (std::find(t.checkpoint_boundaries.begin(),
                      t.checkpoint_boundaries.end(),
                      l + 1) != t.checkpoint_boundaries.end()) {
          s.copy_to_host.push_back(out);
        }
      }
      const core::StashPolicy pol = graph_.stash_policy.at(l);
      if (pol != core::StashPolicy::kRecompute && stash_bytes_[l] > 0) {
        const TensorId st =
            Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica});
        s.produces.push_back(ProduceSpec{
            st, static_cast<Bytes>(piece.size) * stash_bytes_[l]});
        if (pol == core::StashPolicy::kSwap) {
          // vDNN-style offload: release the GPU copy as soon as the move
          // lands; the backward fetches it back through the host channel.
          s.move_to_host.push_back(st);
        }
      }
      program_.steps[d].push_back(std::move(s));
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
      Step s;
      s.task = t.id;
      s.compute = cost_.FwdTime(model_.layers[l].spec, piece.size);
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        s.needs.push_back(
            NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
      }
      if (l == t.pack.lo) {
        for (NeedSpec in : BoundaryInputKeys(l, t.replica, piece)) {
          in.from_host = t.reads_checkpoint;  // message-passing channel
          s.needs.push_back(in);
          s.derefs.push_back(in.id);
        }
      } else if (remat_layer(l - 1)) {
        if (stash_bytes_[l - 1] > 0) {
          const TensorId in =
              Id(TensorKey{TensorKind::kStash, l - 1, piece.begin, t.replica});
          s.needs.push_back(
              NeedSpec{in, static_cast<Bytes>(piece.size) * stash_bytes_[l - 1]});
          s.derefs.push_back(in);
        }
      } else {
        // Mixed table: the remat chain restarts above a stored layer.
        for (const NeedSpec& st : StashKeys(l - 1, t.replica, piece)) {
          s.needs.push_back(st);
          s.derefs.push_back(st.id);
        }
      }
      if (stash_bytes_[l] > 0) {
        s.produces.push_back(ProduceSpec{
            Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica}),
            static_cast<Bytes>(piece.size) * stash_bytes_[l]});
      }
      program_.steps[d].push_back(std::move(s));
    }
    for (int l = t.pack.hi; l >= t.pack.lo; --l) {
      Step s;
      s.task = t.id;
      s.compute = cost_.BwdTime(model_.layers[l].spec, piece.size);
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        s.needs.push_back(
            NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
        const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, t.replica});
        if (first_piece) {
          s.produces.push_back(ProduceSpec{g, params});
        } else {
          s.needs.push_back(NeedSpec{g, params});
        }
        s.mark_dirty.push_back(g);
      }
      // Stashed activations of this layer (rematerialized or fetched).
      if (remat_layer(l)) {
        if (stash_bytes_[l] > 0) {
          const TensorId st =
              Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica});
          s.needs.push_back(
              NeedSpec{st, static_cast<Bytes>(piece.size) * stash_bytes_[l]});
          s.derefs.push_back(st);
        }
      } else {
        for (const NeedSpec& st : StashKeys(l, t.replica, piece)) {
          s.needs.push_back(st);
          s.derefs.push_back(st.id);
        }
      }
      // Incoming gradient dA(l+1).
      if (l == t.pack.hi) {
        if (t.pack.hi + 1 <= R - 1 && boundary_bytes_[l + 1] > 0) {
          for (const MbPiece& p : grad_layout_[t.replica][l + 1]) {
            if (!p.Overlaps(piece)) continue;
            const TensorId gin =
                Id(TensorKey{TensorKind::kGradAct, l + 1, p.begin, t.replica});
            s.needs.push_back(NeedSpec{
                gin, static_cast<Bytes>(p.size) * boundary_bytes_[l + 1]});
            s.derefs.push_back(gin);
          }
        }
      } else if (boundary_bytes_[l + 1] > 0) {
        const TensorId gin =
            Id(TensorKey{TensorKind::kGradAct, l + 1, piece.begin, t.replica});
        s.needs.push_back(
            NeedSpec{gin, static_cast<Bytes>(piece.size) * boundary_bytes_[l + 1]});
        s.derefs.push_back(gin);
      }
      // Outgoing gradient dA(l) (none for the model input).
      if (l > 0 && boundary_bytes_[l] > 0) {
        s.produces.push_back(ProduceSpec{
            Id(TensorKey{TensorKind::kGradAct, l, piece.begin, t.replica}),
            static_cast<Bytes>(piece.size) * boundary_bytes_[l]});
      }
      program_.steps[d].push_back(std::move(s));
    }
    first_piece = false;
  }
  // After the group completes: push accumulated gradients to host when the
  // update runs on CPU or gradients reduce across replicas.
  if (push_grads && !program_.steps[d].empty()) {
    Step& last = program_.steps[d].back();
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      if (model_.layers[l].spec.param_bytes > 0) {
        last.move_to_host.push_back(
            Id(TensorKey{TensorKind::kGrad, l, -1, t.replica}));
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
    Step s;
    s.task = t.id;
    s.compute = cost_.GpuUpdateTime(model_.layers[l].spec);
    const TensorId w = Id(TensorKey{TensorKind::kWeight, l, -1, d});
    const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, replica});
    const TensorId o = Id(TensorKey{TensorKind::kOptState, l, -1, d});
    s.needs.push_back(NeedSpec{w, params});
    s.needs.push_back(NeedSpec{g, params});
    s.needs.push_back(NeedSpec{o, opt_state_bytes(l)});
    s.mark_dirty.push_back(w);
    s.mark_dirty.push_back(o);
    s.copy_to_host.push_back(w);   // master write-back; cached copy stays
    s.move_to_host.push_back(o);   // persists on host for the next iteration
    s.derefs.push_back(g);
    program_.steps[d].push_back(std::move(s));
    any = true;
  }
  if (!any) {
    // Pack with no parameters at all: still emit an empty step so the task
    // completes and dependents unblock.
    Step s;
    s.task = t.id;
    program_.steps[d].push_back(std::move(s));
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
  for (const auto& dev : program_.steps) {
    for (const Step& s : dev) {
      for (const TensorId id : s.derefs) ++program_.ref_counts[id];
    }
  }
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
                const std::vector<TensorId>& ids,
                const TensorCatalog& tensors) {
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

std::string DebugString(const Step& s, const TensorCatalog& tensors) {
  std::string out = "t" + std::to_string(s.task);
  out += " needs=[";
  for (size_t i = 0; i < s.needs.size(); ++i) {
    if (i) out += " ";
    out += tensors.key(s.needs[i].id).ToString() + ":" +
           std::to_string(s.needs[i].bytes);
    if (s.needs[i].from_host) out += "@host";
  }
  out += "] produces=[";
  for (size_t i = 0; i < s.produces.size(); ++i) {
    if (i) out += " ";
    out += tensors.key(s.produces[i].id).ToString() + ":" +
           std::to_string(s.produces[i].bytes);
  }
  out += "]";
  AppendKeys(&out, "derefs", s.derefs, tensors);
  AppendKeys(&out, "copy", s.copy_to_host, tensors);
  AppendKeys(&out, "move", s.move_to_host, tensors);
  AppendKeys(&out, "dirty", s.mark_dirty, tensors);
  return out;
}

std::string DebugString(const CpuStep& s, const TensorCatalog& tensors) {
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
