#include "core/estimator.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace harmony::core {

/// Schedule units are stored structure-of-arrays, indexed by flat unit id
/// (uid = lane_base[lane] + position within lane, lanes concatenated in
/// order). The hot scheduling loop then reads producer end times and lane
/// predecessors as direct unit_end[p] loads — no per-edge binary search,
/// and the completion scans stride dense double arrays.
struct EstimatorScratch::Impl {
  std::vector<int32_t> unit_task;
  std::vector<int32_t> unit_piece;  // -1 for update tasks (no group)
  std::vector<int32_t> unit_lane;
  std::vector<double> unit_start;   // -1 = not yet scheduled
  std::vector<double> unit_end;
  // A task's units are consecutive within its lane: piece k of task id is
  // uid task_uid0[id] + k, for k < task_units[id].
  std::vector<int> task_uid0;
  std::vector<int> task_units;
  std::vector<int> lane_base;
  DepResolver deps;  // re-indexed per estimate, capacity kept
  // Producer lists in CSR form: unit uid's producers are
  // data[off[uid] .. off[uid + 1]). Built in uid order, so offsets are
  // recorded as the data arrays grow — one pass, no per-unit vectors.
  std::vector<int> grad_off, grad_data;
  std::vector<int> rigid_off, rigid_data;
  std::vector<int> stream_off;
  std::vector<std::pair<int, int>> stream_data;  // (producer uid, task id)
  std::vector<int> dep_count;
  // Dependents in CSR form (count pass + fill pass over the same edge
  // enumeration).
  std::vector<int> dep_off, dep_data, dep_cursor;
  std::vector<int> ready;
  // Layer prefix sums of the residency policy: one O(R) policy scan per
  // estimate, then a task's swapped stash bytes per sample and its count of
  // kRecompute layers are two subtractions each.
  std::vector<Bytes> prefix_swap;
  std::vector<int32_t> prefix_remat;
  // Per-task unit cost memo. A unit's duration and the host traffic it
  // charges (besides streamed inputs and the weight fetch) depend only on
  // its task and microbatch size, and a group's pieces all have its first
  // piece's size except possibly the last. Slot 2*id holds the cost at
  // group.front().size (task_u0[id]), slot 2*id + 1 at a ragged group's last
  // size. Each is computed once per estimate by the same operations in the
  // same order the per-unit loop used, so every FP sum is bit-identical.
  std::vector<int32_t> task_u0;
  std::vector<TimeSec> task_duration;
  std::vector<Bytes> task_swap_bytes;
};

EstimatorScratch::EstimatorScratch() : impl_(std::make_unique<Impl>()) {}
EstimatorScratch::~EstimatorScratch() = default;
EstimatorScratch::EstimatorScratch(EstimatorScratch&&) noexcept = default;
EstimatorScratch& EstimatorScratch::operator=(EstimatorScratch&&) noexcept =
    default;

RuntimeEstimator::RuntimeEstimator(const profile::ProfileDb& profiles,
                                   const hw::MachineSpec& machine)
    : profiles_(profiles), machine_(machine) {}

Estimate RuntimeEstimator::EstimateIteration(const TaskGraph& graph,
                                             trace::TraceBus* trace,
                                             EstimatorScratch* scratch) const {
  std::unique_ptr<EstimatorScratch> transient;
  if (scratch == nullptr) {
    transient = std::make_unique<EstimatorScratch>();
    scratch = transient.get();
  }
  EstimatorScratch::Impl& sc = *scratch->impl_;

  DepResolver& deps = sc.deps;
  deps.Rebuild(graph);
  const int N = graph.num_devices;
  // Effective per-GPU swap bandwidth: the host link is shared by all GPUs
  // (the estimator's static approximation of contention).
  const double swap_bw = machine_.EffectiveSwapBw(N);
  const double p2p_bw = machine_.EffectiveP2pBw();

  Bytes swap_bytes = 0, p2p_bytes = 0;

  auto pack_params = [&](const Pack& p) {
    return profiles_.PackParamBytes(p.lo, p.hi);
  };
  auto boundary_in_bytes = [&](int b) -> Bytes {
    if (b <= 0 || b >= graph.num_layers) return 0;
    return profiles_.layer(b).input_bytes_per_sample;
  };

  // Pass 1 — lane sizes: per GPU compute lane + per process CPU lane.
  auto& lane_base = sc.lane_base;
  lane_base.assign(2 * N + 1, 0);
  for (int d = 0; d < N; ++d) {
    int count = 0;
    for (int id : graph.device_order[d]) {
      const Task& t = graph.task(id);
      count += t.type == TaskType::kUpdate ? 1 : static_cast<int>(t.group.size());
    }
    lane_base[d + 1] = count;
    if (static_cast<size_t>(d) < graph.cpu_order.size()) {
      lane_base[N + d + 1] = static_cast<int>(graph.cpu_order[d].size());
    }
  }
  for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
    lane_base[lane_id + 1] += lane_base[lane_id];
  }
  const int total_units = lane_base[2 * N];

  // Pass 2 — fill the flat unit arrays lane by lane, recording each task's
  // first uid.
  sc.unit_task.assign(total_units, -1);
  sc.unit_piece.assign(total_units, -1);
  sc.unit_lane.assign(total_units, -1);
  sc.unit_start.assign(total_units, -1.0);
  sc.unit_end.assign(total_units, -1.0);
  sc.task_uid0.assign(graph.num_tasks(), -1);
  sc.task_units.assign(graph.num_tasks(), 0);
  int32_t* const unit_task = sc.unit_task.data();
  int32_t* const unit_piece = sc.unit_piece.data();
  int32_t* const unit_lane = sc.unit_lane.data();
  double* const unit_start = sc.unit_start.data();
  double* const unit_end = sc.unit_end.data();
  int* const task_uid0 = sc.task_uid0.data();
  int* const task_units = sc.task_units.data();
  auto place_task = [&](int id, int* uid, int lane) {
    const Task& t = graph.task(id);
    const int units =
        t.type == TaskType::kUpdate ? 1 : static_cast<int>(t.group.size());
    task_uid0[id] = *uid;
    task_units[id] = units;
    for (int k = 0; k < units; ++k, ++*uid) {
      unit_task[*uid] = id;
      if (t.type != TaskType::kUpdate) unit_piece[*uid] = k;
      unit_lane[*uid] = lane;
    }
  };
  for (int d = 0; d < N; ++d) {
    int uid = lane_base[d];
    for (int id : graph.device_order[d]) place_task(id, &uid, d);
    if (static_cast<size_t>(d) < graph.cpu_order.size()) {
      uid = lane_base[N + d];
      for (int id : graph.cpu_order[d]) place_task(id, &uid, N + d);
    }
  }

  auto uid_of = [&](int task, int piece) -> int {
    HARMONY_CHECK_GT(task_units[task], 0);
    return task_uid0[task] +
           (piece >= 0 && piece < task_units[task] ? piece : 0);
  };

  // Pass 2b — per-task unit costs (see Impl). Integer stash bytes
  // distribute exactly over the microbatch size, so charging
  // usize * Σ per-sample bytes is bit-identical to the per-layer sum it
  // replaces.
  sc.prefix_swap.assign(graph.num_layers + 1, 0);
  sc.prefix_remat.assign(graph.num_layers + 1, 0);
  for (int l = 0; l < graph.num_layers; ++l) {
    const StashPolicy p = graph.stash_policy.at(l);
    sc.prefix_swap[l + 1] =
        sc.prefix_swap[l] +
        (p == StashPolicy::kSwap ? profiles_.layer(l).stash_bytes_per_sample
                                 : 0);
    sc.prefix_remat[l + 1] =
        sc.prefix_remat[l] + (p == StashPolicy::kRecompute ? 1 : 0);
  }
  auto unit_cost = [&](const Task& t, int usize, TimeSec* duration,
                       Bytes* swap) {
    const Bytes swap_per_sample =
        sc.prefix_swap[t.pack.hi + 1] - sc.prefix_swap[t.pack.lo];
    if (t.type == TaskType::kForward) {
      *duration = profiles_.PackFwdTime(t.pack.lo, t.pack.hi, usize);
      // Swapped-out stash (kSwap layers): the write overlaps compute on the
      // swap-out stream, so only the volume counts.
      *swap += static_cast<Bytes>(usize) * swap_per_sample;
    } else {
      *duration = profiles_.PackBwdTime(t.pack.lo, t.pack.hi, usize);
      if (t.fused_forward) {
        *duration += profiles_.PackFwdTime(t.pack.lo, t.pack.hi, usize);
      } else {
        const int remat_layers =
            sc.prefix_remat[t.pack.hi + 1] - sc.prefix_remat[t.pack.lo];
        if (remat_layers == t.pack.num_layers()) {
          // Whole-pack rematerialization: one PackFwdTime call, not a
          // per-layer sum — preserves the FP summation order of the
          // pre-policy estimator so the pinned goldens stay bit-identical.
          *duration += profiles_.PackFwdTime(t.pack.lo, t.pack.hi, usize);
        } else if (remat_layers > 0) {
          for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
            if (graph.stash_policy.at(l) == StashPolicy::kRecompute) {
              *duration += profiles_.FwdTime(l, usize);
            }
          }
        }
        // Swapped stash read-back: charged like the checkpoint read
        // (host -> device on the critical path; kKeep stays free).
        if (swap_per_sample > 0) {
          for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
            if (graph.stash_policy.at(l) != StashPolicy::kSwap) continue;
            const Bytes st = static_cast<Bytes>(usize) *
                             profiles_.layer(l).stash_bytes_per_sample;
            if (st == 0) continue;
            *duration += static_cast<double>(st) / swap_bw;
            *swap += st;
          }
        }
      }
    }
    // Checkpoint read for backward tasks (message passing via host).
    if (t.type == TaskType::kBackward && t.reads_checkpoint) {
      const Bytes ck = static_cast<Bytes>(usize) * boundary_in_bytes(t.pack.lo);
      *duration += static_cast<double>(ck) / swap_bw;
      *swap += ck;
    }
    // Checkpoint writes (forward): overlapped on the swap-out stream; count
    // volume only.
    for (int b : t.checkpoint_boundaries) {
      *swap += static_cast<Bytes>(usize) * boundary_in_bytes(b);
    }
  };
  sc.task_u0.assign(graph.num_tasks(), 0);
  sc.task_duration.assign(2 * graph.num_tasks(), 0.0);
  sc.task_swap_bytes.assign(2 * graph.num_tasks(), 0);
  for (int id = 0; id < graph.num_tasks(); ++id) {
    const Task& t = graph.task(id);
    if (t.type == TaskType::kUpdate || t.group.empty()) continue;
    const int sizes[2] = {t.group.front().size, t.group.back().size};
    for (const MbPiece& p : t.group) {
      HARMONY_DCHECK(p.size == sizes[0] || p.size == sizes[1]);
    }
    sc.task_u0[id] = sizes[0];
    // Slot 1 is filled only for a ragged group; an even one never selects it.
    for (int slot = 0; slot < (sizes[1] == sizes[0] ? 1 : 2); ++slot) {
      unit_cost(t, sizes[slot], &sc.task_duration[2 * id + slot],
                &sc.task_swap_bytes[2 * id + slot]);
    }
  }
  const int32_t* const task_u0 = sc.task_u0.data();
  const TimeSec* const task_duration = sc.task_duration.data();
  const Bytes* const task_swap_bytes = sc.task_swap_bytes.data();

  // Precompute each unit's producers (cross-lane dependencies), CSR-packed in
  // uid order. Updates keep their gradient producers separate from the
  // rigid-scheduling extras, since only the former enter the traffic model.
  sc.grad_off.assign(total_units + 1, 0);
  sc.rigid_off.assign(total_units + 1, 0);
  sc.stream_off.assign(total_units + 1, 0);
  sc.grad_data.clear();
  sc.rigid_data.clear();
  sc.stream_data.clear();

  // The resolver appends task ids / (task, piece) pairs straight into the
  // CSR data arrays; each new entry is then rewritten in place to its uid
  // (a gradient producer's last piece finishes its task).
  auto last_piece_uid = [&](int pid) {
    return uid_of(pid, static_cast<int>(graph.task(pid).group.size()) - 1);
  };
  for (int uid = 0; uid < total_units; ++uid) {
    const Task& t = graph.task(unit_task[uid]);
    if (t.type == TaskType::kUpdate) {
      const size_t first = sc.grad_data.size();
      deps.BackwardTasksForPack(t.pack, t.replica, &sc.grad_data);
      for (size_t e = first; e < sc.grad_data.size(); ++e) {
        sc.grad_data[e] = last_piece_uid(sc.grad_data[e]);
      }
      if (!graph.flags.jit_update) {
        // Rigid scheduling: updates wait for the entire backward pass.
        for (int r = 0; r < graph.num_replicas; ++r) {
          if (t.replica >= 0 && r != t.replica) continue;
          for (int pid : deps.AllBackwardTasks(r)) {
            sc.rigid_data.push_back(last_piece_uid(pid));
          }
        }
      }
    } else {
      const MbPiece piece = t.group[unit_piece[uid]];
      const bool wants_act = t.type == TaskType::kForward || t.fused_forward;
      const size_t first = sc.stream_data.size();
      deps.AppendProducers(wants_act ? DepResolver::Input::kActivation
                                     : DepResolver::Input::kGradient,
                           wants_act ? t.pack.lo : t.pack.hi + 1, piece,
                           t.replica, &sc.stream_data);
      for (size_t e = first; e < sc.stream_data.size(); ++e) {
        const auto [pid, pk] = sc.stream_data[e];
        sc.stream_data[e] = {uid_of(pid, pk), pid};
      }
    }
    sc.grad_off[uid + 1] = static_cast<int>(sc.grad_data.size());
    sc.rigid_off[uid + 1] = static_cast<int>(sc.rigid_data.size());
    sc.stream_off[uid + 1] = static_cast<int>(sc.stream_data.size());
  }
  const int* const grad_off = sc.grad_off.data();
  const int* const grad_data = sc.grad_data.data();
  const int* const rigid_off = sc.rigid_off.data();
  const int* const rigid_data = sc.rigid_data.data();
  const int* const stream_off = sc.stream_off.data();
  const std::pair<int, int>* const stream_data = sc.stream_data.data();

  // Dependency-counted ready queue (Kahn): a unit becomes ready when its lane
  // predecessor and every producer unit have finished. Duplicate edges are
  // fine — each one both increments the count and appears in the dependents
  // list. Any pop order yields the same schedule: a unit's times depend only
  // on its (finished) producers, and the byte counters are order-free sums.
  //
  // Dependents are CSR too: a count pass sizes each unit's out-list, a fill
  // pass walks the identical edge enumeration into the reserved spans.
  auto& dep_count = sc.dep_count;
  dep_count.assign(total_units, 0);
  sc.dep_off.assign(total_units + 1, 0);
  auto for_each_edge = [&](auto&& edge) {
    for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
      for (int uid = lane_base[lane_id] + 1; uid < lane_base[lane_id + 1];
           ++uid) {
        edge(uid - 1, uid);
      }
    }
    for (int uid = 0; uid < total_units; ++uid) {
      for (int e = grad_off[uid]; e < grad_off[uid + 1]; ++e) {
        edge(grad_data[e], uid);
      }
      for (int e = rigid_off[uid]; e < rigid_off[uid + 1]; ++e) {
        edge(rigid_data[e], uid);
      }
      for (int e = stream_off[uid]; e < stream_off[uid + 1]; ++e) {
        edge(stream_data[e].first, uid);
      }
    }
  };
  for_each_edge([&](int from, int to) {
    if (from == to) return;  // a task is never its own producer
    ++dep_count[to];
    ++sc.dep_off[from + 1];
  });
  for (int uid = 0; uid < total_units; ++uid) {
    sc.dep_off[uid + 1] += sc.dep_off[uid];
  }
  sc.dep_data.resize(sc.dep_off[total_units]);
  sc.dep_cursor.assign(sc.dep_off.begin(), sc.dep_off.end() - 1);
  for_each_edge([&](int from, int to) {
    if (from == to) return;
    sc.dep_data[sc.dep_cursor[from]++] = to;
  });
  const int* const dep_off = sc.dep_off.data();
  const int* const dep_data = sc.dep_data.data();

  auto& ready = sc.ready;
  ready.clear();
  ready.reserve(total_units);
  for (int uid = 0; uid < total_units; ++uid) {
    if (dep_count[uid] == 0) ready.push_back(uid);
  }

  int64_t scheduled = 0;
  while (!ready.empty()) {
    const int uid = ready.back();
    ready.pop_back();
    const int lane_id = unit_lane[uid];
    const int pos = uid - lane_base[lane_id];
    const Task& t = graph.task(unit_task[uid]);
    const TimeSec lane_free = pos == 0 ? 0.0 : unit_end[uid - 1];

    TimeSec ready_time = lane_free;
    TimeSec duration = 0.0;

    if (t.type == TaskType::kUpdate) {
      const Bytes params = pack_params(t.pack);
      const int nrep = grad_off[uid + 1] - grad_off[uid];
      TimeSec grads_ready = 0.0;
      for (int e = grad_off[uid]; e < grad_off[uid + 1]; ++e) {
        const TimeSec done = unit_end[grad_data[e]];
        HARMONY_DCHECK_GE(done, 0.0);
        grads_ready = std::max(grads_ready, done);
      }
      for (int e = rigid_off[uid]; e < rigid_off[uid + 1]; ++e) {
        const TimeSec done = unit_end[rigid_data[e]];
        HARMONY_DCHECK_GE(done, 0.0);
        grads_ready = std::max(grads_ready, done);
      }
      if (t.on_cpu) {
        // Gradient swap-out from each producing GPU, then CPU reduce +
        // Adam update on host-resident master state.
        grads_ready += static_cast<double>(params) / swap_bw;
        swap_bytes += params * nrep;
        duration = static_cast<double>(params) * (2.0 + nrep) /
                   machine_.cpu_update_bw;
      } else {
        // On-GPU update: W in+out, optimizer state in+out, compute.
        const Bytes traffic = 2 * params + 4 * params;
        swap_bytes += traffic + (graph.grad_reduce_via_host ? 2 * params : 0);
        TimeSec compute = 0;
        for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
          compute += profiles_.layer(l).gpu_update_time;
        }
        duration = static_cast<double>(traffic) / swap_bw + compute;
      }
      ready_time = std::max(ready_time, grads_ready);
    } else {
      const int task = unit_task[uid];
      const int usize = t.group[unit_piece[uid]].size;
      const int memo = 2 * task + (usize == task_u0[task] ? 0 : 1);
      duration = task_duration[memo];
      swap_bytes += task_swap_bytes[memo];

      // Streaming input: activations (forward / fused) or boundary
      // gradient (backward).
      const bool wants_act = t.type == TaskType::kForward || t.fused_forward;
      const int in_boundary = wants_act ? t.pack.lo : t.pack.hi + 1;
      for (int e = stream_off[uid]; e < stream_off[uid + 1]; ++e) {
        const auto& [p, pid] = stream_data[e];
        const TimeSec done = unit_end[p];
        HARMONY_DCHECK_GE(done, 0.0);
        const Task& prod = graph.task(pid);
        const Bytes bytes =
            static_cast<Bytes>(usize) * boundary_in_bytes(in_boundary);
        TimeSec xfer = 0.0;
        if (prod.device != t.device && bytes > 0) {
          if (graph.flags.p2p_transfers) {
            xfer = static_cast<double>(bytes) / p2p_bw;
            p2p_bytes += bytes;
          } else {
            xfer = 2.0 * static_cast<double>(bytes) / swap_bw;
            swap_bytes += 2 * bytes;
          }
        }
        ready_time = std::max(ready_time, done + xfer);
      }

      // Weight fetch at the first piece of a task; prefetch overlaps it
      // with the previous task on the device.
      if (unit_piece[uid] == 0) {
        const Bytes params = pack_params(t.pack);
        const TimeSec fetch = static_cast<double>(params) / swap_bw;
        swap_bytes += params;
        if (graph.flags.prefetch && pos > 0) {
          const TimeSec prev_span = unit_end[uid - 1] - unit_start[uid - 1];
          ready_time =
              std::max(ready_time, lane_free + std::max(0.0, fetch - prev_span));
        } else {
          ready_time = std::max(ready_time, lane_free + fetch);
        }
      }
    }

    unit_start[uid] = ready_time;
    unit_end[uid] = ready_time + duration;
    ++scheduled;
    for (int e = dep_off[uid]; e < dep_off[uid + 1]; ++e) {
      const int dep = dep_data[e];
      if (--dep_count[dep] == 0) ready.push_back(dep);
    }
  }
  HARMONY_CHECK_EQ(scheduled, total_units)
      << "estimator deadlock: schedule has cyclic waits in graph '"
      << graph.name << "'";

  // Replay the predicted schedule onto the trace bus: one compute lane per
  // GPU, one CPU lane per process, in start-time order (lane order is
  // schedule order, and units within a lane never overlap).
  if (trace != nullptr && trace->active()) {
    for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
      const bool cpu_lane = lane_id >= N;
      for (int uid = lane_base[lane_id]; uid < lane_base[lane_id + 1]; ++uid) {
        trace::Event begin;
        begin.kind = trace::EventKind::kOpBegin;
        begin.lane = cpu_lane ? trace::Lane::kCpu : trace::Lane::kCompute;
        begin.device = cpu_lane ? lane_id - N : lane_id;
        begin.time = unit_start[uid];
        begin.task = unit_task[uid];
        if (trace->detailed()) {
          begin.name = "t" + std::to_string(unit_task[uid]);
          if (unit_piece[uid] >= 0) {
            begin.name += " p" + std::to_string(unit_piece[uid]);
          }
        }
        trace::Event end = begin;
        end.kind = trace::EventKind::kOpEnd;
        end.time = unit_end[uid];
        end.name.clear();
        trace->Emit(begin);
        trace->Emit(end);
      }
    }
  }

  Estimate e;
  for (int uid = 0; uid < total_units; ++uid) {
    e.iteration_time = std::max(e.iteration_time, unit_end[uid]);
  }
  e.swap_bytes = swap_bytes;
  e.p2p_bytes = p2p_bytes;
  return e;
}

}  // namespace harmony::core
